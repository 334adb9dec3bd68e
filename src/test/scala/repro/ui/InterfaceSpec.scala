package repro.ui

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.catalog.{CatalogSchema, CatalogTables}
import repro.providers.{ProviderContext, Registry}
import repro.spec._

class InterfaceSpec extends SparkSpec {

  private lazy val ctx = TestFixtures.ctx
  private val spec = UseCaseSpec.default
  private val registry = Registry.standard
  private lazy val model = Interface.generate(spec, registry, ctx)

  // ---- overviews (§5.1) ----------------------------------------------------

  test("overview tabs are the overview-visible, input-free providers, in order") {
    assert(model.tabs.map(_.provider.name) ==
      Seq("Recent Documents", "Popular", "Badged", "Type", "Usage Map"))
  }

  test("each overview tab carries a constructed view of the right shape") {
    val shapes = model.tabs.map(t => t.provider.name -> t.view.getClass.getSimpleName).toMap
    assert(shapes("Recent Documents") == "ListView")
    assert(shapes("Popular") == "TilesView")
    assert(shapes("Badged") == "CategoriesView")
    assert(shapes("Usage Map") == "EmbeddingViewModel")
  }

  test("overview tabs have non-empty data") {
    model.tabs.foreach { t =>
      assert(t.view.artifactIds.count() > 0, s"tab ${t.provider.name} is empty")
    }
  }

  test("search keys compile from the spec") {
    assert(model.searchKeys == Seq("owned by", "created by", "badged", "badged by", "type"))
  }

  test("generation rejects an invalid spec") {
    val bad = spec.copy(providers = spec.providers :+
      spec.providers.head.copy(name = "Broken", endpoint = "missing_endpoint"))
    val e = intercept[IllegalArgumentException](Interface.generate(bad, registry, ctx))
    assert(e.getMessage.contains("missing_endpoint"))
  }

  // ---- exploration (§5.2, §6.3) --------------------------------------------

  test("exploration context extracts the selected artifact's metadata") {
    val c = Interface.explorationContext(ctx, 1L)
    assert(c("artifact") == "1")
    assert(c("artifact_type") == "table")
    assert(c("user") == "Alex")
    assert(c("team") == "A Team")
    assert(c("badge") == "endorsed")
    assert(c("table") == "AIRLINES")
  }

  test("exploration context binds the smallest of several badge names") {
    val s = spark
    import s.implicits._
    val day = java.sql.Date.valueOf("2023-01-01")
    val base = ctx.catalog
    val cat = CatalogTables(
      artifacts = Seq((1L, "T", "table", 1L, 1L, day, 1L, 0L, ""))
        .toDF(CatalogSchema.artifacts.all: _*),
      users = base.users, teams = base.teams,
      badges = Seq((1L, "warning", 1L, day), (1L, "endorsed", 1L, day))
        .toDF(CatalogSchema.badges.all: _*),
      lineage = base.lineage.limit(0), usage = base.usage.limit(0))
    val c = Interface.explorationContext(ProviderContext(spark, cat), 1L)
    assert(c("badge") == "endorsed")
  }

  test("exploration context of unknown artifact is empty") {
    assert(Interface.explorationContext(ctx, 999999L).isEmpty)
  }

  test("selecting a table lights up all input-requiring exploration providers") {
    val tabs = Interface.exploration(spec, registry, ctx, 1L)
    assert(tabs.map(_.provider.name).toSet ==
      Set("Owned By", "Badged", "Type", "Team Documents", "Team Activity",
        "Lineage", "Joinable"))
  }

  test("selecting a workbook omits the table-only joinable provider") {
    val tabs = Interface.exploration(spec, registry, ctx, 7L) // Q3_PLANNING workbook
    val names = tabs.map(_.provider.name).toSet
    assert(!names.contains("Joinable"))
    assert(names.contains("Owned By"))
  }

  test("exploration binds the owner for 'more from that owner' (§5.2)") {
    val tabs = Interface.exploration(spec, registry, ctx, 1L)
    val owned = tabs.find(_.provider.name == "Owned By").get
    assert(owned.inputs == Map("user" -> "Alex"))
    val owners = owned.view.asInstanceOf[ListView].data
      .select("owner_id").distinct().collect().map(_.getLong(0)).toSet
    assert(owners == Set(1L))
  }

  test("exploration surfaces same-badge artifacts (Task 2)") {
    val tabs = Interface.exploration(spec, registry, ctx, 1L)
    val badged = tabs.find(_.provider.name == "Badged").get
    assert(badged.inputs("badge") == "endorsed")
    val others = badged.view.artifactIds.where(col("artifact_id") =!= 1L).count()
    assert(others > 0)
  }

  test("exploration lineage is rooted at the selection") {
    val tabs = Interface.exploration(spec, registry, ctx, 1L)
    val lin = tabs.find(_.provider.name == "Lineage").get.view.asInstanceOf[HierarchyView]
    val roots = lin.data.where(col("depth") === 0)
      .select("artifact_id").collect().map(_.getLong(0)).toSeq
    assert(roots == Seq(1L))
  }

  // ---- team home page (§4.3) -----------------------------------------------

  test("team home page renders the custom content's providers in order") {
    val tabs = Interface.teamHomePage(spec, registry, ctx, "A Team")
    assert(tabs.map(_.provider.name) == Seq("Popular", "Badged", "Team Activity"))
  }

  test("team home page binds the team into team-typed inputs") {
    val tabs = Interface.teamHomePage(spec, registry, ctx, "A Team")
    val activity = tabs.find(_.provider.name == "Team Activity").get
    assert(activity.inputs == Map("team" -> "A Team"))
    assert(activity.view.artifactIds.count() > 0)
  }

  test("team without a configured page gets no tabs") {
    assert(Interface.teamHomePage(spec, registry, ctx, "B Team").isEmpty)
  }

  // ---- filter composition (§5.3) -------------------------------------------

  test("filtering a view narrows to the view's scope") {
    val badgedTab = model.tabs.find(_.provider.name == "Badged").get
    val filtered = Interface.filterView(model, badgedTab.view, "type: table")
      .fold(e => fail(e), identity)
    val types = filtered.select("artifact_type").distinct().collect().map(_.getString(0))
    assert(types.toSeq == Seq("table"))
    // every filtered artifact must be inside the view's scope
    val scopeIds = badgedTab.view.artifactIds.collect().map(_.getLong(0)).toSet
    val gotIds = filtered.select("artifact_id").collect().map(_.getLong(0)).toSet
    assert(gotIds.subsetOf(scopeIds))
  }

  test("filtering with free text works on views (joinability-filter example, §6.4)") {
    val tab = model.tabs.find(_.provider.name == "Popular").get
    val filtered = Interface.filterView(model, tab.view, "'airlines'")
      .fold(e => fail(e), identity)
    val names = filtered.select("name").collect().map(_.getString(0))
    assert(names.nonEmpty && names.forall(_.toLowerCase.contains("airlines")))
  }

  test("hiding a provider removes its tab on regeneration (§4.4 loop)") {
    val hidden = Config.hideOn(spec, "Popular", Surface.Overview)
    val regenerated = Interface.generate(hidden, registry, ctx)
    assert(!regenerated.tabs.map(_.provider.name).contains("Popular"))
  }

  test("adding a spec-only provider adds a tab without code changes (§1)") {
    val extra = MetadataProviderSpec(
      name = "All Artifacts", category = "interaction",
      description = "Everything, ranked",
      representation = Representation.Categories, endpoint = "of_type",
      inputs = Seq(InputSpec("artifact_type", "artifact_type", required = false)),
      visibility = Seq(Surface.Overview))
    val extended = Config.addProvider(spec, extra)
    val regenerated = Interface.generate(extended, registry, ctx)
    assert(regenerated.tabs.map(_.provider.name).contains("All Artifacts"))
  }
}
