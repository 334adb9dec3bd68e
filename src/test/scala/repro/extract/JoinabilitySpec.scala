package repro.extract

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.catalog.LakeSynth

class JoinabilitySpec extends SparkSpec {

  private lazy val lake = LakeSynth.tables(spark, rows = 200, seed = 7)
  private lazy val sketches = ColumnSketches.sketchAll(lake, k = 64)
  private lazy val edges = Joinability.edges(sketches, threshold = 0.5)

  private lazy val small = lake.map { case (n, df) => n -> df.limit(60) }

  /** `small` with every value cast to string as the melt sees it, loaded
    * into DuckDB for the per-pair oracle.
    */
  private lazy val smallAsStrings: Seq[(String, DataFrame)] = small.map { case (n, df) =>
    n -> df.select(df.columns.map(c => col(c).cast("string").as(c)).toIndexedSeq: _*)
  }

  /** DuckDB: exact containment |a ∩ b| / |a| of one column pair over
    * distinct non-null values, as one `(ta, ca, tb, cb, score)` row.
    */
  private def containmentSql(ta: String, ca: String, tb: String, cb: String): String =
    s"""SELECT '$ta' AS ta, '$ca' AS ca, '$tb' AS tb, '$cb' AS cb,
       |  (SELECT count(*) FROM (SELECT $ca FROM $ta WHERE $ca IS NOT NULL
       |     INTERSECT SELECT $cb FROM $tb WHERE $cb IS NOT NULL)) /
       |  (SELECT count(DISTINCT $ca) FROM $ta) AS score""".stripMargin

  test("planted region_id clique is discovered") {
    // Every pair among the five region-carrying tables should be connected.
    val connected = edges.map(e => (e.srcTable, e.dstTable)).toSet
    val tablesWithRegion = Seq("AIRLINES", "SALES_PIPELINE", "SALES_FORECAST",
      "REGIONAL_SALES", "CUSTOMER_BASE")
    for (a <- tablesWithRegion; b <- tablesWithRegion if a != b)
      assert(connected.contains((a, b)), s"missing edge $a -> $b")
  }

  test("discovered column pairs are the planted join keys") {
    val airlinesToRegional = edges
      .find(e => e.srcTable == "AIRLINES" && e.dstTable == "REGIONAL_SALES").get
    assert(airlinesToRegional.srcColumn == "region_id")
    assert(airlinesToRegional.dstColumn == "region_id")
  }

  test("customer link between pipeline and base is found") {
    val e = edges.find(e =>
      e.srcTable == "SALES_PIPELINE" && e.dstTable == "CUSTOMER_BASE").get
    // Both region_id and customer_id qualify; the best pair must score ~1.
    assert(e.score > 0.8)
  }

  test("edges never connect a table to itself") {
    assert(edges.forall(e => e.srcTable != e.dstTable))
  }

  test("edge scores are valid containments") {
    assert(edges.forall(e => e.score >= 0.0 && e.score <= 1.0))
  }

  test("threshold prunes edges") {
    val loose = Joinability.edges(sketches, threshold = 0.1)
    val strict = Joinability.edges(sketches, threshold = 0.9)
    assert(strict.size <= edges.size)
    assert(edges.size <= loose.size)
  }

  test("sketch edges agree with exact edges on the lake") {
    val exact = Joinability.exactEdgesFast(spark, lake, threshold = 0.5)
    val exactPairs = exact.map(e => (e.srcTable, e.dstTable)).toSet
    val estPairs = edges.map(e => (e.srcTable, e.dstTable)).toSet
    // At k=64 on planted keys with containment ~1.0 the tails are far from
    // the 0.5 threshold, so the edge sets must match exactly.
    assert(estPairs == exactPairs,
      s"missing=${exactPairs -- estPairs} spurious=${estPairs -- exactPairs}")
  }

  test("edgesDf has the graph-provider contract columns") {
    val df = Joinability.edgesDf(spark, edges)
    assert(df.columns.toSet ==
      Set("src_table", "src_column", "dst_table", "dst_column", "score"))
    assert(df.count() == edges.size)
  }

  test("fast exact containments agree with the per-pair oracle") {
    val fast = Joinability.exactContainmentsAll(spark, small)
      .map(e => (e.srcTable, e.srcColumn, e.dstTable, e.dstColumn) -> e.score).toMap
    // Spot-check a handful of pairs against the per-pair SQL computation.
    val pairs = Seq(
      ("AIRLINES", "region_id", "REGIONAL_SALES", "region_id"),
      ("SALES_PIPELINE", "customer_id", "CUSTOMER_BASE", "customer_id"),
      ("AIRLINES", "carrier", "CUSTOMER_BASE", "customer_name"),
      ("REGIONAL_SALES", "region_id", "AIRLINES", "region_id"))
    val (_, rows) = Oracle.query(
      pairs.map((containmentSql _).tupled).mkString("\nUNION ALL\n"), smallAsStrings: _*)
    assert(rows.size == pairs.size)
    rows.foreach { r =>
      val key = (r.getString(0), r.getString(1), r.getString(2), r.getString(3))
      val slow = r.getDouble(4)
      val got = fast.getOrElse(key, 0.0)
      assert(math.abs(got - slow) < 1e-9, s"$key: fast=$got slow=$slow")
    }
  }

  test("fast exact edges match the slow exact edges") {
    val allPairs = for {
      (ta, dfA) <- small
      (tb, dfB) <- small
      if ta != tb
      ca <- dfA.columns.toSeq
      cb <- dfB.columns.toSeq
    } yield containmentSql(ta, ca, tb, cb)
    val (_, rows) = Oracle.query(
      s"""SELECT ta, tb, max(score) AS score
         |FROM (${allPairs.mkString("\nUNION ALL\n")})
         |GROUP BY ta, tb HAVING max(score) >= 0.5""".stripMargin, smallAsStrings: _*)
    val slow = rows.map(r => (r.getString(0), r.getString(1)) -> r.getDouble(2)).toMap
    val fast = Joinability.exactEdgesFast(spark, small, threshold = 0.5)
      .map(e => (e.srcTable, e.dstTable) -> e.score).toMap
    assert(fast.keySet == slow.keySet)
    fast.foreach { case (k, v) => assert(math.abs(v - slow(k)) < 1e-9, s"$k") }
  }

  test("edgesDf of empty edge list is empty but well-formed") {
    val df = Joinability.edgesDf(spark, Seq.empty)
    assert(df.count() == 0)
    assert(df.columns.length == 5)
  }
}
