package repro.perfbench

import java.io.File

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.col
import repro.SynthData
import repro.catalog.LakeSynth
import repro.extract.{ColumnSketch, ColumnSketches, Embedding, JoinEdge, Joinability}

/** `extract`: the offline path, the `ExtractMetadata` job minus its writes.
  *
  * Before timing, a parquet lake of the five `LakeSynth` tables plus
  * TPC-H-lite `lineitem`, `orders`, `customer` and `part` at SF=0.01 (39
  * columns) is written from the seed. A full pass scans the lake through
  * the `humboldt-catalog` DataSourceV2, reads every dataset, sketches every
  * column (k = 64), builds joinability edges and collects the artifact
  * embedding. Between passes the operator lists the lake (the DSV2 scan
  * alone) a few times.
  *
  * With `tourOnly`, only the tour is prepared: one listing and one pass over
  * the context's own five-table lake.
  */
final class ExtractWorkload(h: Harness, tourOnly: Boolean = false) extends Workload {
  import Reference.Lake

  val primary = "pass"
  val secondary = "listing"

  private val K = 64
  private val Threshold = 0.5
  private val ListingsPerPass = 5

  private final case class Checked(lake: Lake, edges: Set[(String, String)])
  private var warmLake: Lake = _
  private var lake: Checked = _
  private var artifactIds: Set[Long] = Set.empty

  override def prepareWarmUp(): Unit = if (!tourOnly) {
    warmLake = Reference.writeLake(new File(h.workDir, "warm-lake"),
      LakeSynth.tables(h.spark, seed = h.seed).filter(t => Set("AIRLINES", "REGIONAL_SALES")(t._1)))
  }

  def warmUp(): Unit = pass(warmLake, traced = false)

  def prepare(ref: => Reference): Unit = {
    artifactIds = h.ctx.catalog.artifacts.select(col("artifact_id")).collect().map(_.getLong(0)).toSet
    val l =
      if (tourOnly) h.contextLake
      else {
        val s = h.seed
        Reference.writeLake(new File(h.workDir, "lake"), LakeSynth.tables(h.spark, seed = s) ++ Seq(
          "lineitem" -> SynthData.lineitem(h.spark, 0.01, s),
          "orders" -> SynthData.orders(h.spark, 0.01, s + 1),
          "customer" -> SynthData.customer(h.spark, 0.01, s + 2),
          "part" -> SynthData.part(h.spark, 0.01, s + 5)))
      }
    lake = Checked(l, ref.exactEdgePairs(l.dir, l.columns, Threshold))
  }

  private def listing(l: Lake, traced: Boolean): Array[Row] =
    h.spanRows(traced, "datasource.scan", (rs: Array[Row]) => rs.length.toLong) {
      h.spark.read.format("humboldt-catalog").load(l.dir.getPath).collect()
    }

  private def checkListing(l: Lake, rows: Array[Row]): Seq[String] = {
    val got = rows.map(r => r.getAs[String]("name") -> r.getAs[Long]("row_count")).toMap
    if (got == l.rows) Nil else Seq(s"lake listing $got, want ${l.rows}")
  }

  private def pass(l: Lake, traced: Boolean): (Array[Row], Seq[JoinEdge], Array[Row]) = {
    val scan = listing(l, traced)
    val tables = scan.map(_.getAs[String]("name")).sorted.toSeq
      .map(n => n -> h.spark.read.parquet(new File(l.dir, n).getPath))
    val sketches = h.spanRows(traced, "extract.sketch", (s: Seq[ColumnSketch]) => s.size.toLong)(
      ColumnSketches.sketchAll(tables, K))
    val edges = h.spanRows(traced, "extract.edges", (e: Seq[JoinEdge]) => e.size.toLong)(
      Joinability.edges(sketches, Threshold))
    val coords = h.spanRows(traced, "extract.embedding", (c: Array[Row]) => c.length.toLong)(
      Embedding.coordinates(h.ctx.catalog).collect())
    (scan, edges, coords)
  }

  private final class PassOp(c: Checked) extends Op {
    val label = s"extraction pass over ${c.lake.dir.getName}"
    val sample = primary
    def run(traced: Boolean): (Double, Seq[String]) = {
      val ((scan, edges, coords), ms) = h.request(traced, "extract.pass")(pass(c.lake, traced))
      val gotEdges = edges.map(e => e.srcTable -> e.dstTable).toSet
      val ids = coords.map(_.getAs[Long]("artifact_id"))
      val problems = checkListing(c.lake, scan) ++
        (if (gotEdges == c.edges) Nil
         else Seq(s"${gotEdges.size} edge pairs, want ${c.edges.size}; " +
           s"missing ${(c.edges -- gotEdges).take(3)} extra ${(gotEdges -- c.edges).take(3)}")) ++
        (if (ids.length == artifactIds.size && ids.toSet == artifactIds) Nil
         else Seq(s"${ids.length} embedding points for ${artifactIds.size} artifacts"))
      (ms, problems)
    }
  }

  private final class ListingOp(l: Lake) extends Op {
    val label = s"lake listing of ${l.dir.getName}"
    val sample = secondary
    def run(traced: Boolean): (Double, Seq[String]) = {
      val (rows, ms) = h.request(traced, "datasource.listing")(listing(l, traced))
      (ms, checkListing(l, rows))
    }
  }

  def session: Seq[Op] = Seq.fill(ListingsPerPass)(new ListingOp(lake.lake)) :+ new PassOp(lake)

  /** One listing and one pass, for traced runs of other workloads. */
  def tour: Seq[Op] = Seq(new ListingOp(lake.lake), new PassOp(lake))
}
