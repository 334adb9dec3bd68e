package repro.perfbench

import java.io.File
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.providers.{Contracts, ProviderBinding, ProviderContext, Registry}
import repro.spec.{MetadataProviderSpec, UseCaseSpec}
import repro.ui._

/** One user operation of a closed-loop session.
  *
  * `run(traced)` performs the operation, returns its wall time in ms and
  * the problems found in its output (empty when correct). Output checks
  * run after the clock stops. `sample` names the latency series the time
  * goes to; `repeatable` operations are run twice in a traced run, once
  * traced and once not, to measure tracing overhead.
  */
trait Op {
  def label: String
  def sample: String
  def repeatable: Boolean = true
  def run(traced: Boolean): (Double, Seq[String])
}

/** What a workload adds to the shared set-up and loop. */
trait Workload {
  /** Untimed: write inputs the warm-up needs (e.g. a small lake). */
  def prepareWarmUp(): Unit = ()
  /** Timed as part of set-up: one untimed-in-the-loop run of each op type. */
  def warmUp(): Unit
  /** Untimed: generate the seeded inputs and their reference answers. */
  def prepare(ref: => Reference): Unit
  /** The measured session, performed once in full by every run: a fixed
    * part, whose ops feed `primary` and `secondary`, and a seeded slice,
    * whose ops feed series of their own.
    */
  def session: Seq[Op]
  /** Latency series reported as `primary_gmean_ms` and `secondary_gmean_ms`. */
  def primary: String
  def secondary: String
  /** A few ops covering this workload's layers, run traced by the traced
    * runs of the other workloads so that every per-layer metric is
    * measured in every traced run.
    */
  def tour: Seq[Op]
}

/** State shared by the workloads of one run: the session, the provider
  * context, latency samples, failure counts and, in a traced run, the
  * tracer.
  */
final class Harness(val spark: SparkSession, val ctx: ProviderContext, val seed: Long,
                    val seconds: Double, val tracer: Option[Tracer], val workDir: File) {
  val spec = UseCaseSpec.default
  val registry: Registry = Registry.standard
  val samples = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]

  var attempted = 0L
  var failed = 0L
  val failures = ArrayBuffer.empty[String]
  private var requests = 0
  /** Each (endpoint, inputs) is probed once per run; repeats add no information. */
  private val probed = mutable.Set.empty[(String, Map[String, String])]

  /** The lake the context's joinability edges were sketched from
    * (`LakeSynth` defaults, as in `SimulatedStudy.context`), as parquet.
    */
  lazy val contextLake: Reference.Lake =
    Reference.writeLake(new File(workDir, "context-lake"), repro.catalog.LakeSynth.tables(spark))

  def record(series: String, ms: Double): Unit =
    samples.getOrElseUpdate(series, ArrayBuffer.empty) += ms

  /** Run `op` once; its time goes to series `prefix + op.sample`, with
    * `traced.` in front when traced.
    */
  def exec(op: Op, traced: Boolean, prefix: String = ""): Unit = {
    attempted += 1
    val problems =
      try {
        val (ms, ps) = op.run(traced)
        if (op.sample.nonEmpty) record((if (traced) "traced." else "") + prefix + op.sample, ms)
        ps
      } catch { case NonFatal(e) => Seq(s"threw $e") }
    if (problems.nonEmpty) {
      failed += 1
      if (failures.size < 20) failures += s"${op.label}: ${problems.take(3).mkString("; ")}"
    }
  }

  /** Run the session once in full, then repeat it until `seconds` have
    * passed. Only the first pass feeds the reported series, so every run
    * measures the same ops however fast the program is; repeats go to
    * `extra.` series, which are recorded but not reported as metrics. In a
    * traced run each repeatable op runs traced and untraced, alternating
    * which goes first.
    */
  def closedLoop(session: Seq[Op]): Unit = {
    require(session.nonEmpty, "empty session")
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    while (i < session.size || System.nanoTime() < deadline) {
      val op = session(i % session.size)
      val prefix = if (i < session.size) "" else "extra."
      if (tracer.isEmpty) exec(op, traced = false, prefix)
      else if (!op.repeatable) exec(op, traced = true, prefix)
      else {
        val tracedFirst = i % 2 == 0
        exec(op, tracedFirst, prefix)
        exec(op, !tracedFirst, prefix)
      }
      i += 1
    }
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Run `body` as one traced request rooted at span `name`, or untraced. */
  def request[A](traced: Boolean, name: String)(body: => A): (A, Double) =
    tracer match {
      case Some(t) if traced =>
        requests += 1
        t.request(s"$name-$requests") {
          var ms = 0.0
          val r = t.span(name) {
            val (x, d) = timed(body)
            ms = d
            x
          }
          (r, ms)
        }
      case _ => timed(body)
    }

  /** A child span when tracing, else just `body`. */
  def span[A](traced: Boolean, name: String)(body: => A): A =
    spanRows(traced, name, (_: A) => -1L)(body)

  def spanRows[A](traced: Boolean, name: String, rows: A => Long)(body: => A): A =
    tracer match {
      case Some(t) if traced => t.spanRows(name, rows)(body)
      case _                 => body
    }

  /** In a traced run only, time `body` as a request of its own, outside
    * any measured op: a step the measured call also does internally (e.g.
    * parsing inside `search`), timed by calling it separately.
    */
  def probe(traced: Boolean, name: String)(body: => Any): Unit =
    tracer.filter(_ => traced).foreach { t =>
      requests += 1
      t.request(s"probe-$requests")(t.span(name)(body))
    }

  /** Time one provider endpoint from outside: fetch, then collect the
    * artifact ids it yields. Traced runs only, once per (endpoint, inputs).
    */
  def probeProvider(p: MetadataProviderSpec, inputs: Map[String, String]): Unit =
    tracer.filter(_ => probed.add(p.endpoint -> inputs)).foreach { t =>
      requests += 1
      t.request(s"probe-$requests") {
        t.spanRows(s"providers.fetch.${p.endpoint}", (n: Long) => n) {
          val impl = ProviderBinding.resolve(p, registry)
          Contracts.artifactIds(impl.representation, impl.fetch(ctx, inputs)).collect().length.toLong
        }
      }
    }
}

/** What a generated view holds once its DataFrames are collected. */
final case class Collected(ids: Set[Long], rows: Long)

object Collected {
  /** Collect every DataFrame a view exposes — what a renderer binds to —
    * and the artifact ids of the one that lists artifacts.
    */
  def view(v: ViewModel): Collected = v match {
    case t: TilesView          => rows(t.data)
    case l: ListView           => rows(l.data)
    case h: HierarchyView      => rows(h.data)
    case e: EmbeddingViewModel => rows(e.points)
    case g: GraphView          => plus(rows(g.nodes), g.edges)
    case c: CategoriesView     => plus(rows(c.members), c.rollup)
  }

  private def rows(df: DataFrame): Collected = {
    val i = df.schema.fieldIndex("artifact_id")
    val rs = df.collect()
    Collected(rs.iterator.map(r => r.getAs[Number](i).longValue).toSet, rs.length.toLong)
  }

  private def plus(c: Collected, other: DataFrame): Collected =
    c.copy(rows = c.rows + other.collect().length)
}
