package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory

import repro.catalog.CatalogSynth
import repro.jobs.JobSession
import repro.spec.Json
import repro.spec.Json.{num, obj, str}
import repro.study.SimulatedStudy

/** Benchmark runner: one seeded closed-loop workload against the program.
  *
  * {{{
  * Main --workload search|explore|extract --seed N --seconds S --trace 0|1 --work DIR [--spans FILE]
  * }}}
  *
  * Set-up builds the session through the production `JobSession` and the
  * SF=0.1 catalog through `SimulatedStudy.context`, then warms up every op
  * type the workload runs. Inputs and reference answers are generated after
  * set-up, untimed. One client then runs the workload's session once in
  * full, and repeats it until S seconds have passed; every output is
  * checked. The last stdout line is the result object; the line before it
  * records the run's environment and samples.
  *
  * With `--trace 1` every call into the program is also timed as a span
  * with its Spark counts, each op runs traced and untraced, the run ends
  * with a short tour of every layer, and per-layer metrics are printed
  * instead of end-to-end ones.
  */
object Main {
  val SF = 0.1
  val CatalogSeed = 42L

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean,
                           work: File, spans: Option[File])

  private def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    Options(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") == "1", new File(need("work")), kv.get("spans").map(new File(_)))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    require(Set("search", "explore", "extract").contains(o.workload), s"unknown workload ${o.workload}")
    o.work.mkdirs()

    // ---- set-up (timed, excluding input and reference generation) ----
    val t0 = System.nanoTime()
    val spark = JobSession("humboldt-perfbench")
    val tracer = if (o.trace) Some(new Tracer(SparkCounters.install(spark.sparkContext))) else None
    def setupSpan[A](name: String)(body: => A): A =
      tracer.fold(body)(t => t.request("setup")(t.span(name)(body)))
    val ctx = setupSpan("study.context")(SimulatedStudy.context(spark, SF, CatalogSeed))
    setupSpan("catalog.materialize")(ctx.catalog.byName.values.foreach(_.count()))
    setupSpan("providers.enriched")(ctx.enrichedArtifacts.count())
    var setupNs = System.nanoTime() - t0

    val h = new Harness(spark, ctx, o.seed, o.seconds, tracer, o.work)
    val workload: Workload = o.workload match {
      case "search"  => new SearchWorkload(h)
      case "explore" => new ExploreWorkload(h)
      case "extract" => new ExtractWorkload(h)
    }
    workload.prepareWarmUp()
    val t1 = System.nanoTime()
    workload.warmUp()
    setupNs += System.nanoTime() - t1
    val setupS = setupNs / 1e9

    // Spark's ContextCleaner frees blocks of collected RDDs and broadcasts
    // only after a GC finds them unreachable; give it time, then GC again.
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(400) }
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    val cachedMb = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1048576.0

    // ---- inputs and reference answers (untimed) ----
    val t2 = System.nanoTime()
    lazy val ref = Reference.load(ctx.catalog, new File(o.work, "catalog"))
    workload.prepare(ref)
    // A traced run ends with a tour of every layer, so that each per-layer
    // metric is measured whichever workload ran.
    val others: Seq[Workload] = if (!o.trace) Nil else
      Seq(new SearchWorkload(h), new ExploreWorkload(h), new ExtractWorkload(h, tourOnly = true))
        .filterNot(_.getClass == workload.getClass)
    others.foreach { w => w.prepareWarmUp(); w.prepare(ref) }
    val tours = if (!o.trace) Nil else workload +: others

    // ---- the measured closed loop ----
    System.gc() // start every run's window from the same heap state
    val t3 = System.nanoTime()
    h.closedLoop(workload.session)
    val t4 = System.nanoTime()
    tours.foreach(_.tour.foreach(op => h.exec(op, traced = true, prefix = "tour.")))
    tracer.foreach { t =>
      t.request("catalog") {
        val c = t.span("catalog.build") {
          val c = CatalogSynth(spark, SF, CatalogSeed).cached()
          c.byName.values.foreach(_.count())
          c
        }
        c.byName.values.foreach(_.unpersist())
      }
    }

    val series = h.samples.toSeq.map { case (name, xs) =>
      name -> obj("n" -> num(xs.size), "p50_ms" -> num(Stats.median(xs.toSeq)),
        "p90_ms" -> num(Stats.quantile(xs.toSeq, 0.9)),
        "ms" -> Json.arr(xs.toSeq.map(x => num(math.round(x * 10) / 10.0)): _*))
    }
    val conf = spark.conf
    println(obj(
      "workload" -> str(o.workload), "trace" -> Json.bool(o.trace),
      "environment" -> obj(
        "cores" -> num(Runtime.getRuntime.availableProcessors()),
        "master" -> str(spark.sparkContext.master),
        "shuffle_partitions" -> str(conf.get("spark.sql.shuffle.partitions")),
        "adaptive" -> str(conf.get("spark.sql.adaptive.enabled")),
        "broadcast_threshold" -> str(conf.get("spark.sql.autoBroadcastJoinThreshold")),
        "sf" -> num(SF), "catalog_seed" -> num(CatalogSeed.toDouble), "seed" -> num(o.seed.toDouble),
        "seconds" -> num(o.seconds),
        "jvm_max_heap_mb" -> num(Runtime.getRuntime.maxMemory / 1048576.0),
        "spark_version" -> str(spark.version)),
      "phases_s" -> obj("setup" -> num(setupS), "inputs_and_references" -> num((t3 - t2) / 1e9),
        "loop" -> num((t4 - t3) / 1e9), "tour" -> num((System.nanoTime() - t4) / 1e9),
        "total" -> num((System.nanoTime() - t0) / 1e9)),
      "samples" -> obj(series: _*),
      "failed_ratio" -> num(h.failed.toDouble / h.attempted),
      "failures" -> Json.arr(h.failures.toSeq.map(str): _*)).render)
    val metrics: Seq[(String, Double, String)] = tracer match {
      case None => Seq(
        ("setup_s", setupS, "s"),
        ("heap_mb", heapMb, "MiB"),
        ("primary_gmean_ms", Stats.geometricMean(h.samples(workload.primary).toSeq), "ms"),
        ("secondary_gmean_ms", Stats.geometricMean(h.samples(workload.secondary).toSeq), "ms"))
      case Some(t) => PerLayer.metrics(t, h, workload, cachedMb)
    }
    metrics.foreach { case (n, v, _) => require(!v.isNaN && !v.isInfinite, s"$n is $v") }

    for (t <- tracer; f <- o.spans) t.writeJsonLines(f)
    println(obj(
      "correct" -> Json.bool(h.failed == 0),
      "attempted" -> num(h.attempted.toDouble),
      "failed" -> num(h.failed.toDouble),
      "metrics" -> obj(metrics.map { case (n, v, u) => n -> obj("value" -> num(v), "unit" -> str(u)) }: _*)
    ).render)
    spark.stop()
  }
}
