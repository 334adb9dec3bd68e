package repro.extract

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.catalog.LakeSynth

class ColumnSketchesSpec extends SparkSpec {
  import spark.implicits._

  private def df(name: String, values: Seq[Long]) = values.toDF(name)

  /** Reference: the per-column formula — one aggregation over a single
    * column's distinct non-null string values, slot i `min(hash(i, v))`.
    */
  private def referenceSketch(df: DataFrame, table: String, column: String, k: Int): ColumnSketch = {
    val values = df.select(col(column).cast("string").as("v")).na.drop().distinct()
    val aggs = count(lit(1)).as("n") +: (0 until k).map(i => min(hash(lit(i), col("v"))).as(s"h$i"))
    val row = values.agg(aggs.head, aggs.tail: _*).collect()(0)
    val n = row.getLong(0)
    val sig =
      if (n == 0) Array.fill(k)(Int.MaxValue)
      else Array.tabulate(k)(i => row.getInt(i + 1))
    ColumnSketch(table, column, n, sig)
  }

  test("sketch records exact distinct count") {
    val s = ColumnSketches.sketch(df("v", Seq(1, 2, 3, 2, 1)), "t", "v", k = 16)
    assert(s.distinct == 3)
    assert(s.k == 16)
  }

  test("sketch ignores nulls") {
    val d = Seq(Some(1L), None, Some(2L), None).toDF("v")
    val s = ColumnSketches.sketch(d, "t", "v", k = 8)
    assert(s.distinct == 2)
  }

  test("empty column sketches to empty signature") {
    val d = Seq.empty[Long].toDF("v")
    val s = ColumnSketches.sketch(d, "t", "v", k = 8)
    assert(s.distinct == 0)
    assert(s.jaccard(s) == 1.0 || s.sig.forall(_ == Int.MaxValue))
    assert(s.containmentIn(s) == 0.0)
  }

  test("identical columns have jaccard 1") {
    val a = ColumnSketches.sketch(df("v", 1L to 100L), "a", "v", k = 32)
    val b = ColumnSketches.sketch(df("v", 1L to 100L), "b", "v", k = 32)
    assert(a.jaccard(b) == 1.0)
  }

  test("disjoint columns have jaccard ~0") {
    val a = ColumnSketches.sketch(df("v", 1L to 200L), "a", "v", k = 64)
    val b = ColumnSketches.sketch(df("v", 1001L to 1200L), "b", "v", k = 64)
    assert(a.jaccard(b) < 0.1)
  }

  test("jaccard estimate tracks true overlap within sketch error") {
    // |A|=400, |B|=400, |A∩B|=200 -> J = 200/600 = 1/3.
    val a = ColumnSketches.sketch(df("v", 1L to 400L), "a", "v", k = 128)
    val b = ColumnSketches.sketch(df("v", 201L to 600L), "b", "v", k = 128)
    val est = a.jaccard(b)
    assert(math.abs(est - 1.0 / 3.0) < 0.15, s"estimate $est too far from 1/3")
  }

  test("containment of a subset is ~1") {
    val sub = ColumnSketches.sketch(df("v", 1L to 50L), "a", "v", k = 128)
    val sup = ColumnSketches.sketch(df("v", 1L to 500L), "b", "v", k = 128)
    assert(sub.containmentIn(sup) > 0.7, s"got ${sub.containmentIn(sup)}")
    assert(sup.containmentIn(sub) < 0.35, s"got ${sup.containmentIn(sub)}")
  }

  test("containment is capped at 1") {
    val a = ColumnSketches.sketch(df("v", 1L to 30L), "a", "v", k = 64)
    assert(a.containmentIn(a) <= 1.0)
  }

  test("sketches are deterministic") {
    val a = ColumnSketches.sketch(df("v", 1L to 99L), "a", "v", k = 16)
    val b = ColumnSketches.sketch(df("v", 1L to 99L), "a", "v", k = 16)
    assert(a.sig.sameElements(b.sig))
  }

  test("sketch width mismatch is rejected") {
    val a = ColumnSketches.sketch(df("v", 1L to 9L), "a", "v", k = 8)
    val b = ColumnSketches.sketch(df("v", 1L to 9L), "b", "v", k = 16)
    assertThrows[IllegalArgumentException](a.jaccard(b))
  }

  test("sketchAll covers every column of every table") {
    val t1 = Seq((1L, "x")).toDF("id", "label")
    val t2 = Seq((2L, 3.0)).toDF("k", "value")
    val all = ColumnSketches.sketchAll(Seq("t1" -> t1, "t2" -> t2), k = 4)
    assert(all.map(s => (s.table, s.column)).toSet ==
      Set(("t1", "id"), ("t1", "label"), ("t2", "k"), ("t2", "value")))
  }

  test("values are compared as strings across numeric types") {
    // The sketch casts to string, so 1 (int) and 1 (long) collide — this is
    // intentional for cross-table join detection.
    val ints  = Seq(1, 2, 3).toDF("v")
    val longs = Seq(1L, 2L, 3L).toDF("v")
    val a = ColumnSketches.sketch(ints, "a", "v", k = 32)
    val b = ColumnSketches.sketch(longs, "b", "v", k = 32)
    assert(a.jaccard(b) == 1.0)
  }

  test("one-pass sketchAll equals the per-column formula") {
    val withNulls = Seq((1L, Option.empty[String]), (2L, None)).toDF("id", "never")
    val empty = Seq.empty[(Long, String)].toDF("id", "label")
    val tables = LakeSynth.tables(spark) ++ Seq("WITH_NULLS" -> withNulls, "EMPTY" -> empty)
    for (k <- Seq(16, 64)) {
      val got = ColumnSketches.sketchAll(tables, k)
      val want = for ((t, d) <- tables; c <- d.columns.toSeq) yield referenceSketch(d, t, c, k)
      assert(got.map(s => (s.table, s.column)) == want.map(s => (s.table, s.column)))
      got.zip(want).foreach { case (g, w) =>
        assert(g.distinct == w.distinct, s"k=$k ${g.table}.${g.column} distinct")
        assert(g.sig.sameElements(w.sig), s"k=$k ${g.table}.${g.column} signature")
      }
    }
  }

  test("exactContainmentsAll computes the true fraction") {
    val got = Joinability.exactContainmentsAll(spark,
      Seq("a" -> df("v", 1L to 10L), "b" -> df("v", 6L to 20L)))
      .map(e => (e.srcTable, e.dstTable) -> e.score).toMap
    assert(got(("a", "b")) == 0.5)
    assert(got(("b", "a")) == 5.0 / 15.0)
  }

  test("exactContainmentsAll gives an empty source no edge") {
    val a = Seq.empty[Long].toDF("v")
    val b = df("v", 1L to 5L)
    val got = Joinability.exactContainmentsAll(spark, Seq("a" -> a, "b" -> b))
    assert(!got.exists(_.srcTable == "a"))
  }
}
