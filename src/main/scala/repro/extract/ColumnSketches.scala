package repro.extract

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** A k-minwise hash signature of one column, plus its profile.
  *
  * This is the descriptor layer of the relationship-metadata substrate
  * (paper §2: "Most similarity computations operate on descriptors or
  * signatures of table columns (e.g., MinHash sketches ...)"). Signatures
  * are tiny (k ints) so downstream pairwise comparison is driver-side.
  *
  * @param table    dataset name the column belongs to
  * @param column   column name
  * @param distinct exact distinct count of non-null values
  * @param sig      k minimum hash values, position i under seed i
  */
final case class ColumnSketch(table: String, column: String, distinct: Long, sig: Array[Int]) {
  def k: Int = sig.length

  /** Jaccard similarity estimate: fraction of agreeing signature slots. */
  def jaccard(other: ColumnSketch): Double = {
    require(k == other.k, s"sketch width mismatch: $k vs ${other.k}")
    if (k == 0) 0.0
    else sig.iterator.zip(other.sig.iterator).count { case (a, b) => a == b }.toDouble / k
  }

  /** Estimated |this ∩ other| from the Jaccard estimate and set sizes. */
  def intersectionEstimate(other: ColumnSketch): Double = {
    val j = jaccard(other)
    j / (1.0 + j) * (distinct + other.distinct)
  }

  /** Estimated containment of `this` in `other`: |∩| / |this|. */
  def containmentIn(other: ColumnSketch): Double =
    if (distinct == 0) 0.0
    else math.min(1.0, intersectionEstimate(other) / distinct)
}

/** MinHash sketch construction via DataFrame scans.
  *
  * Every column of every table is sketched by one `groupBy(table, column)`
  * aggregation over the lake's melted values ([[melt]]), so the number of
  * Spark jobs does not grow with the number of columns. Slot i of a column
  * is `min(hash(i, value))` over its distinct non-null values, cast to
  * string. Deterministic — Spark's `hash` is Murmur3 with the slot index as
  * a leading mixing term.
  */
object ColumnSketches {
  val DefaultK = 64

  /** Distinct non-null `(t, c, v)` rows over every column of every table,
    * with `v` the value cast to string. Each table is scanned once: a row
    * is exploded into one `(c, v)` pair per column.
    */
  private[extract] def melt(tables: Seq[(String, DataFrame)]): DataFrame =
    tables.map { case (name, df) =>
      val pairs = df.columns.toSeq.map(c => struct(lit(c).as("c"), col(c).cast("string").as("v")))
      df.select(lit(name).as("t"), explode(array(pairs: _*)).as("cv"))
        .select(col("t"), col("cv.c").as("c"), col("cv.v").as("v"))
    }.reduce(_ unionByName _).where(col("v").isNotNull).distinct()

  /** Sketch a single column of `df`. */
  def sketch(df: DataFrame, table: String, column: String, k: Int = DefaultK): ColumnSketch =
    sketchAll(Seq(table -> df.select(column)), k).head

  /** Sketch every column of every named dataset, in table then column
    * order. A column with no non-null value gets `distinct = 0` and an
    * all-`Int.MaxValue` signature.
    */
  def sketchAll(tables: Seq[(String, DataFrame)], k: Int = DefaultK): Seq[ColumnSketch] = {
    val columns = for ((name, df) <- tables; c <- df.columns.toSeq) yield (name, c)
    val aggs = count(lit(1)).as("n") +: (0 until k).map(i => min(hash(lit(i), col("v"))).as(s"h$i"))
    val rows =
      if (columns.isEmpty) Map.empty[(String, String), Row]
      else melt(tables).groupBy("t", "c").agg(aggs.head, aggs.tail: _*).collect()
        .map(r => (r.getString(0), r.getString(1)) -> r).toMap
    columns.map { case (name, c) =>
      rows.get((name, c)) match {
        case Some(r) => ColumnSketch(name, c, r.getLong(2), Array.tabulate(k)(i => r.getInt(i + 3)))
        case None    => ColumnSketch(name, c, 0L, Array.fill(k)(Int.MaxValue))
      }
    }
  }
}
