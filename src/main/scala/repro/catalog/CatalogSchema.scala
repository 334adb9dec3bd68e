package repro.catalog

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Column-name constants for the metadata catalog.
  *
  * The catalog models the metadata landscape of an interactive data system
  * (paper §1, §6): data *artifacts* (tables, visualizations, workbooks,
  * dashboards) plus the metadata the formative interviews surfaced as
  * discovery-relevant — ownership, teams, badges/endorsements, usage, and
  * lineage. Providers contract on these names; the spec layer never sees them.
  */
object CatalogSchema {
  /** Artifact kinds, ordered by how they derive from each other:
    * table -> visualization -> dashboard; workbooks sit on tables.
    */
  val ArtifactTypes: Seq[String] = Seq("table", "visualization", "workbook", "dashboard")

  /** Badge kinds (paper Figure 2 "Badged"; the study uses `endorsed`). */
  val BadgeTypes: Seq[String] = Seq("endorsed", "warning", "deprecated")

  object artifacts {
    val id          = "artifact_id"
    val name        = "name"
    val artifactTpe = "artifact_type"
    val ownerId     = "owner_id"
    val teamId      = "team_id"
    val createdAt   = "created_at"
    val views       = "views"
    val favorites   = "favorites"
    val description = "description"
    val all: Seq[String] =
      Seq(id, name, artifactTpe, ownerId, teamId, createdAt, views, favorites, description)
  }

  /** Artifact columns plus the ranking fields derived by
    * [[CatalogTables.enrichedArtifacts]].
    */
  object enriched {
    val endorsements = "endorsements"
    val ageDays      = "age_days"
    val all: Seq[String] = artifacts.all ++ Seq(endorsements, ageDays)
  }

  object users {
    val id     = "user_id"
    val name   = "user_name"
    val teamId = "team_id"
    val all: Seq[String] = Seq(id, name, teamId)
  }

  object teams {
    val id   = "team_id"
    val name = "team_name"
    val all: Seq[String] = Seq(id, name)
  }

  object badges {
    val artifactId = "artifact_id"
    val badge      = "badge"
    val badgedBy   = "badged_by"
    val badgedAt   = "badged_at"
    val all: Seq[String] = Seq(artifactId, badge, badgedBy, badgedAt)
  }

  object lineage {
    val parentId = "parent_id"
    val childId  = "child_id"
    val all: Seq[String] = Seq(parentId, childId)
  }

  object usage {
    val artifactId = "artifact_id"
    val userId     = "user_id"
    val day        = "day"
    val all: Seq[String] = Seq(artifactId, userId, day)
  }
}

/** The metadata catalog as a bundle of DataFrames.
  *
  * This is the substrate every metadata provider reads from. In the paper
  * these would be Sigma's production metadata services; here they are
  * synthesized by [[CatalogSynth]] or extracted from a parquet lake by the
  * `humboldt-catalog` DataSourceV2 (see DESIGN.md §1 for the substitution).
  */
final case class CatalogTables(
    artifacts: DataFrame,
    users: DataFrame,
    teams: DataFrame,
    badges: DataFrame,
    lineage: DataFrame,
    usage: DataFrame,
) {
  /** Cache all member frames — benches reuse the catalog across queries. */
  def cached(): CatalogTables =
    CatalogTables(artifacts.cache(), users.cache(), teams.cache(),
      badges.cache(), lineage.cache(), usage.cache())

  /** Artifacts enriched with ranking-relevant derived metadata fields:
    * `endorsements` (count of `endorsed` badges) and `age_days` (days from
    * creation to [[CatalogTables.ReferenceDate]]). Ranking weights in specs
    * reference these by name (paper §4.2, Listing 1 uses `favorite`/`views`).
    */
  def enrichedArtifacts: DataFrame = {
    val endorsed = badges
      .where(col("badge") === "endorsed")
      .groupBy(col("artifact_id").as("b_aid"))
      .agg(count(lit(1)).as("n_endorsed"))
    artifacts.join(endorsed, artifacts("artifact_id") === endorsed("b_aid"), "left")
      .select(artifacts.columns.toSeq.map(artifacts(_)) ++ Seq(
        coalesce(col("n_endorsed"), lit(0L)).as(CatalogSchema.enriched.endorsements),
        datediff(lit(CatalogTables.ReferenceDate).cast("date"), artifacts("created_at"))
          .cast("long").as(CatalogSchema.enriched.ageDays)): _*)
  }

  /** All tables by name, for oracle registration and persistence. */
  def byName: Map[String, DataFrame] = Map(
    "artifacts" -> artifacts, "users" -> users, "teams" -> teams,
    "badges" -> badges, "lineage" -> lineage, "usage" -> usage)
}

object CatalogTables {
  /** The day `age_days` counts up to. Fixed, so rankings over a catalog do
    * not drift with the wall clock.
    */
  val ReferenceDate = "2024-01-01"
}
