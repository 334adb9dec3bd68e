package repro.perfbench

import java.io.{File, PrintWriter}
import java.util.Properties
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._
import repro.spec.Json.{num, obj, str}

/** Spark work attributed to one request or span. */
final case class Counts(jobs: Long, stages: Long, tasks: Long, taskMs: Long) {
  def -(o: Counts): Counts =
    Counts(jobs - o.jobs, stages - o.stages, tasks - o.tasks, taskMs - o.taskMs)
}

/** Request-scoped Spark counters.
  *
  * Only work submitted under a `perfbench:` job group is counted, so jobs
  * that Spark or another thread runs outside a request are not mixed in.
  * Listener callbacks arrive asynchronously; [[snapshot]] drains the bus
  * before reading, so a snapshot taken after an action returns includes
  * every job, stage and task of that action.
  */
final class SparkCounters private (sc: SparkContext) extends SparkListener {
  private val GroupPrefix = "perfbench:"
  private val stagesInScope = scala.collection.mutable.Set.empty[Int]
  private var jobs, stages, tasks, taskMs = 0L

  private def inScope(p: Properties): Boolean =
    p != null && Option(p.getProperty("spark.jobGroup.id")).exists(_.startsWith(GroupPrefix))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (inScope(e.properties)) jobs += 1
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    if (inScope(e.properties)) { stages += 1; stagesInScope += e.stageInfo.stageId }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (stagesInScope.contains(e.stageId)) {
      tasks += 1
      if (e.taskMetrics != null) taskMs += e.taskMetrics.executorRunTime
    }
  }

  def snapshot(): Counts = {
    PerfbenchBus.drain(sc)
    synchronized(Counts(jobs, stages, tasks, taskMs))
  }

  /** Run `body` with its Spark work attributed to `request`. */
  def scoped[A](request: String)(body: => A): A = {
    sc.setJobGroup(GroupPrefix + request, request, interruptOnCancel = false)
    try body finally sc.clearJobGroup()
  }
}

object SparkCounters {
  def install(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters(sc)
    sc.addSparkListener(c)
    c
  }
}

/** One timed call into the program. `layer` is the part of `name` before
  * the first dot, which is the repro module the call enters.
  */
final case class Span(id: Int, parent: Int, request: String, name: String,
                      startNs: Long, endNs: Long, counts: Counts, rows: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spans recorded from outside the program, around its public calls.
  * Spans are kept in memory and written out once, at the end of a run.
  */
final class Tracer(val counters: SparkCounters) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private var currentRequest = ""

  def request[A](id: String)(body: => A): A = {
    currentRequest = id
    try counters.scoped(id)(body) finally currentRequest = ""
  }

  def span[A](name: String)(body: => A): A = spanRows(name, (_: A) => -1L)(body)

  /** Time `body` as span `name`; `rows` reports the rows it produced. */
  def spanRows[A](name: String, rows: A => Long)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val before = counters.snapshot()
    val t0 = System.nanoTime()
    val result = try body finally open = open.tail
    val t1 = System.nanoTime()
    val c = counters.snapshot() - before
    done += Span(id, parent, currentRequest, name, t0, t1, c, rows(result))
    result
  }

  def named(name: String): Seq[Span] = done.filter(_.name == name).toSeq

  /** Self time per layer: each span's duration minus its children's. */
  def selfMsByLayer: Map[String, Double] = {
    val childMs = done.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.ms).sum }
    done.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => s.ms - childMs.getOrElse(s.id, 0.0)).sum
    }
  }

  def writeJsonLines(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try done.foreach { s =>
      def n(x: Long) = num(x.toDouble)
      out.println(obj(
        "id" -> num(s.id), "parent" -> num(s.parent), "request" -> str(s.request),
        "name" -> str(s.name), "layer" -> str(s.layer), "start_ns" -> n(s.startNs),
        "end_ns" -> n(s.endNs), "jobs" -> n(s.counts.jobs), "stages" -> n(s.counts.stages),
        "tasks" -> n(s.counts.tasks), "task_ms" -> n(s.counts.taskMs), "rows" -> n(s.rows)).render)
    } finally out.close()
  }
}
