package repro.perfbench

import java.io.File
import java.sql.{Connection, DriverManager}
import scala.collection.mutable

import repro.catalog.CatalogTables

/** Reference answers from DuckDB over the collected catalog tables.
  *
  * The catalog is written to parquet once and loaded into an in-process
  * DuckDB. Every provider result the benchmark checks is re-derived here in
  * SQL from the provider's documented meaning, not from its code, so a
  * rewrite of a provider, the compiler or the views that changes an answer
  * shows up as a failed operation.
  */
final class Reference private (conn: Connection) {
  private val memo = mutable.Map.empty[String, Any]

  private def rows[A](sql: String)(read: java.sql.ResultSet => A): Vector[A] =
    memo.getOrElseUpdate(sql, {
      val st = conn.createStatement()
      try {
        val rs = st.executeQuery(sql)
        val out = Vector.newBuilder[A]
        while (rs.next()) out += read(rs)
        out.result()
      } finally st.close()
    }).asInstanceOf[Vector[A]]

  def ids(sql: String): Set[Long] = rows(sql)(_.getLong(1)).toSet
  def strings(sql: String): Vector[String] = rows(sql)(_.getString(1))

  /** Ordered table pairs of a parquet lake joined by at least one column
    * pair whose exact containment |A ∩ B| / |A| over distinct string-cast
    * values reaches `threshold` — the semantics of
    * `Joinability.exactEdgesFast`, computed here in SQL.
    */
  def exactEdgePairs(lake: File, columns: Map[String, Seq[String]],
                     threshold: Double): Set[(String, String)] = {
    val melt = for { (t, cs) <- columns.toSeq; c <- cs } yield {
      val glob = Reference.lit(new File(new File(lake, t), "*.parquet").getPath)
      val q = "\"" + c + "\""
      s"SELECT DISTINCT ${Reference.lit(t)} AS t, ${Reference.lit(c)} AS c, " +
        s"CAST($q AS VARCHAR) AS v FROM read_parquet($glob) WHERE $q IS NOT NULL"
    }
    rows(s"WITH v AS (${melt.mkString(" UNION ALL ")}), " +
      "n AS (SELECT t, c, count(*) AS n FROM v GROUP BY t, c), " +
      "m AS (SELECT a.t AS ta, a.c AS ca, b.t AS tb, count(*) AS m FROM v a " +
      "JOIN v b ON a.v = b.v AND a.t <> b.t GROUP BY a.t, a.c, b.t, b.c) " +
      "SELECT DISTINCT ta || chr(31) || tb FROM m JOIN n ON n.t = m.ta AND n.c = m.ca " +
      s"WHERE m.m >= $threshold * n.n")(_.getString(1)).map { s =>
      val Array(a, b) = s.split("\u001f"); a -> b
    }.toSet
  }

  /** Register joinability edges as table `join_edges(src_table, dst_table)`. */
  def registerEdges(edges: Set[(String, String)]): Unit = {
    val st = conn.createStatement()
    try st.execute("CREATE OR REPLACE TABLE join_edges (src_table VARCHAR, dst_table VARCHAR)")
    finally st.close()
    val ps = conn.prepareStatement("INSERT INTO join_edges VALUES (?, ?)")
    try {
      edges.foreach { case (a, b) => ps.setString(1, a); ps.setString(2, b); ps.addBatch() }
      if (edges.nonEmpty) ps.executeBatch()
    } finally ps.close()
    memo.clear()
  }
}

object Reference {
  def load(catalog: CatalogTables, dir: File): Reference = {
    catalog.byName.foreach { case (name, df) =>
      df.write.mode("overwrite").parquet(new File(dir, name).getPath)
    }
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    val st = conn.createStatement()
    try {
      st.execute("SET threads = 2")
      st.execute("SET memory_limit = '512MB'")
      st.execute(s"SET temp_directory = ${lit(new File(dir, "duckdb-tmp").getPath)}")
      catalog.byName.keys.foreach { name =>
        val glob = new File(new File(dir, name), "*.parquet").getPath
        st.execute(s"CREATE TABLE $name AS SELECT * FROM read_parquet(${lit(glob)})")
      }
    } finally st.close()
    new Reference(conn)
  }

  def lit(s: String): String = "'" + s.replace("'", "''") + "'"

  /** A lake written as parquet dataset directories, with what was written. */
  final case class Lake(dir: File, rows: Map[String, Long], columns: Map[String, Seq[String]])

  def writeLake(dir: File, tables: Seq[(String, org.apache.spark.sql.DataFrame)]): Lake = {
    val written = tables.map { case (name, df) =>
      df.write.mode("overwrite").parquet(new File(dir, name).getPath)
      (name, df.count(), df.columns.toSeq)
    }
    Lake(dir, written.map(w => w._1 -> w._2).toMap, written.map(w => w._1 -> w._3).toMap)
  }

  private def artifactsWhere(cond: String): String =
    s"SELECT a.artifact_id FROM artifacts a WHERE $cond"

  private def byBadge(badge: Option[String], user: Option[String]): String = {
    val conds = badge.map(b => s"b.badge = ${lit(b)}").toSeq ++
      user.map(u => s"u.user_name = ${lit(u)}").toSeq
    val where = if (conds.isEmpty) "" else conds.mkString(" WHERE ", " AND ", "")
    artifactsWhere("a.artifact_id IN (SELECT b.artifact_id FROM badges b " +
      s"LEFT JOIN users u ON b.badged_by = u.user_id$where)")
  }

  /** SQL for the artifact ids a standard provider endpoint returns for
    * `inputs`, written from each endpoint's documented meaning.
    */
  def endpointSql(endpoint: String, inputs: Map[String, String]): String = endpoint match {
    case "recents" | "frequent" | "embedding" => artifactsWhere("true")
    case "of_type" =>
      artifactsWhere(inputs.get("artifact_type").map(t => s"a.artifact_type = ${lit(t)}")
        .getOrElse("true"))
    case "owned_by" =>
      artifactsWhere("a.owner_id IN (SELECT user_id FROM users WHERE user_name = " +
        s"${lit(inputs("user"))})")
    case "badged"    => byBadge(inputs.get("badge"), inputs.get("user"))
    case "badged_by" => byBadge(None, Some(inputs("user")))
    case "team_docs" =>
      artifactsWhere("a.team_id IN (SELECT team_id FROM teams WHERE team_name = " +
        s"${lit(inputs("team"))})")
    case "team_frequent" =>
      artifactsWhere("a.artifact_id IN (SELECT g.artifact_id FROM usage g " +
        "JOIN users u ON g.user_id = u.user_id JOIN teams t ON u.team_id = t.team_id " +
        s"WHERE t.team_name = ${lit(inputs("team"))})")
    case "lineage_children" =>
      // UNION (not UNION ALL): each artifact once, and cycles terminate.
      "WITH RECURSIVE d(id) AS (" +
        s"SELECT CAST(${inputs("artifact").toLong} AS BIGINT) UNION " +
        "SELECT l.child_id FROM lineage l JOIN d ON l.parent_id = d.id) " +
        "SELECT a.artifact_id FROM artifacts a WHERE a.artifact_id IN (SELECT id FROM d)"
    case "joinable" =>
      val t = lit(inputs("table").toLowerCase)
      "WITH e AS (SELECT s.artifact_id AS src, d.artifact_id AS dst FROM join_edges j " +
        "JOIN artifacts s ON upper(s.name) = upper(j.src_table) " +
        "JOIN artifacts d ON upper(d.name) = upper(j.dst_table) " +
        s"WHERE lower(j.src_table) = $t OR lower(j.dst_table) = $t) " +
        "SELECT src FROM e UNION SELECT dst FROM e"
    case "text_match" =>
      val q = lit(inputs("q").toLowerCase)
      artifactsWhere(s"contains(lower(a.name), $q) OR contains(lower(a.description), $q)")
    case other => throw new IllegalArgumentException(s"no reference for endpoint '$other'")
  }

  /** Admissible values for an input type narrowed by a typed prefix:
    * distinct, sorted, at most `limit`.
    */
  def suggestSql(inputType: String, prefix: String, limit: Int): Option[String] = {
    val source = inputType match {
      case "user"          => Some("SELECT user_name AS v FROM users")
      case "team"          => Some("SELECT team_name AS v FROM teams")
      case "badge"         => Some("SELECT badge AS v FROM badges")
      case "artifact_type" => Some("SELECT artifact_type AS v FROM artifacts")
      case "table"         => Some("SELECT name AS v FROM artifacts WHERE artifact_type = 'table'")
      case "artifact"      => Some("SELECT name AS v FROM artifacts")
      case _               => None
    }
    val pre = lit(prefix.trim.toLowerCase)
    source.map(s => s"SELECT DISTINCT CAST(v AS VARCHAR) AS v FROM ($s) " +
      s"WHERE v IS NOT NULL AND starts_with(lower(CAST(v AS VARCHAR)), $pre) " +
      s"ORDER BY v LIMIT $limit")
  }
}
