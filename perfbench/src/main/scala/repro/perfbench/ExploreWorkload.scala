package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.functions.{col, max}
import repro.catalog.CatalogSynth
import repro.providers.ProviderBinding
import repro.spec._
import repro.ui.{Config, GeneratedTab, Interface}

/** `explore`: a seeded browse-and-customize session.
  *
  * The session opens the interface and clicks AIRLINES (id 1): the fixed
  * part. Then comes one seeded step, as the seed decides: either a click on
  * an artifact drawn from the pinned ids 2, 7 and 10 and one generated id
  * per `id % 10` stratum (every lineage shape and artifact type), or an
  * admin's write of the spec (one seeded `Config` op) followed by
  * regeneration. Writes never touch exploration visibility, so a click's
  * expected tabs do not depend on earlier writes.
  */
final class ExploreWorkload(h: Harness) extends Workload {
  /** The fixed open and click; the seeded ones form the `drawn.click` and
    * `reopen` series.
    */
  val primary = "click"
  val secondary = "open"

  private val Team = "A Team"
  private var spec: HumboldtSpec = h.spec
  private var ref: Reference = _
  private var drawnClick: Long = _
  private var write: Write = _
  private var clickStep = false
  private val expected = scala.collection.mutable.Map.empty[Long, Map[String, Expected]]

  /** A tab a click must produce: its inputs, and the reference ids for
    * each admissible badge binding (one unless the artifact has several).
    */
  private final case class Expected(inputs: Map[String, String], ids: Seq[(Map[String, String], Set[Long])])

  /** The T5-style entry the admin adds and removes again. */
  private val Extra = MetadataProviderSpec(
    name = "Endorsed", category = "annotations",
    description = "Artifacts carrying a badge, ranked by views",
    representation = Representation.Categories, endpoint = "badged",
    inputs = Seq(InputSpec("badge", "badge", required = false)),
    visibility = Seq(Surface.Overview),
    ranking = Seq(RankingWeight("views", 1.0)))

  // The benchmark's own model of the spec, kept next to the program's.
  private var order: Seq[String] = h.spec.providers.map(_.name)
  private var onOverview: Set[String] =
    h.spec.providersOn(Surface.Overview).filter(_.requiredInputs.isEmpty).map(_.name).toSet
  private var home: Seq[String] = Config.teamHomePage(h.spec, Team)

  private sealed trait Write
  private final case class Toggle(provider: String) extends Write
  private final case class Reorder(names: Seq[String]) extends Write
  private final case class HomePage(names: Seq[String]) extends Write
  private case object AddOrRemove extends Write

  /** One open and one click, on a spec and an artifact the measured session
    * does not start with: a reordered spec and SALES_FORECAST (id 3), a
    * table with the same tab kinds as AIRLINES.
    */
  def warmUp(): Unit = {
    openInterface(Config.reorder(spec, Seq("Type")), traced = false)
    clickArtifact(3L, traced = false)
  }

  def prepare(reference: => Reference): Unit = {
    ref = reference
    val lake = h.contextLake
    // The threshold SimulatedStudy.context builds the context's edges with.
    ref.registerEdges(ref.exactEdgePairs(lake.dir, lake.columns, threshold = 0.5))
    val rnd = new Random(h.seed)
    val maxId = h.ctx.catalog.artifacts.agg(max(col("artifact_id"))).collect()(0).getLong(0)
    val decades = ((maxId - CatalogSynth.GeneratedBase + 1) / 10).toInt
    val candidates = Seq(2L, 7L, 10L) ++
      (0 until 10).map(d => CatalogSynth.GeneratedBase + 10L * rnd.nextInt(decades) + d)
    drawnClick = candidates(rnd.nextInt(candidates.size))
    Seq(1L, drawnClick).foreach(id => expected(id) = expectedTabs(id))

    val overviewable = h.spec.providersOn(Surface.Overview).map(_.name).toVector
    val teamOnly = h.spec.providers.filter(_.requiredInputs.forall(_.inputType == "team"))
      .map(_.name).toVector
    write = rnd.nextInt(4) match {
      case 0 => Reorder(rnd.shuffle(h.spec.providers.map(_.name)).take(4))
      case 1 => Toggle(overviewable(rnd.nextInt(overviewable.size)))
      case 2 => HomePage(rnd.shuffle(teamOnly).take(2 + rnd.nextInt(2)))
      case _ => AddOrRemove
    }
    clickStep = rnd.nextBoolean()
    // Reference ids of every tab an open can show.
    (h.spec.providers :+ Extra).filter(_.requiredInputs.forall(_.inputType == "team"))
      .foreach(p => ref.ids(Reference.endpointSql(p.endpoint, homeInputs(p))))
  }

  private def homeInputs(p: MetadataProviderSpec): Map[String, String] =
    if (p.requiredInputs.exists(_.inputType != "team")) Map.empty
    else p.inputs.filter(_.inputType == "team").map(_.name -> Team).toMap

  /** Tabs a click must show, bound the way §5.2 describes: each
    * exploration provider whose required inputs the artifact's metadata
    * can fill.
    */
  private def expectedTabs(id: Long): Map[String, Expected] = {
    val row = ref.strings(
      "SELECT concat_ws(chr(31), a.name, a.artifact_type, coalesce(u.user_name, ''), " +
        "coalesce(t.team_name, '')) FROM artifacts a LEFT JOIN users u ON a.owner_id = u.user_id " +
        s"LEFT JOIN teams t ON a.team_id = t.team_id WHERE a.artifact_id = $id")
    require(row.size == 1, s"artifact $id not in the catalog")
    val Array(name, tpe, user, team) = row.head.split("\u001f", -1)
    val badges = ref.strings(s"SELECT DISTINCT badge FROM badges WHERE artifact_id = $id ORDER BY 1")
    val known = Map("artifact" -> id.toString, "artifact_type" -> tpe) ++
      Option(user).filter(_.nonEmpty).map("user" -> _) ++
      Option(team).filter(_.nonEmpty).map("team" -> _) ++
      (if (tpe == "table") Map("table" -> name) else Map.empty)
    h.spec.providersOn(Surface.Exploration).flatMap { p =>
      val bound = p.inputs.flatMap(in => known.get(in.inputType).map(in.name -> _)).toMap
      val badgeInputs = p.inputs.filter(_.inputType == "badge").map(_.name)
      val choices: Seq[Map[String, String]] =
        if (badgeInputs.isEmpty || badges.isEmpty) Seq(bound)
        else badges.map(b => bound ++ badgeInputs.map(_ -> b))
      val satisfied = p.requiredInputs.forall(in => choices.head.contains(in.name))
      if (!satisfied || p.inputs.isEmpty) None
      else Some(p.name -> Expected(choices.head,
        choices.map(c => c -> ref.ids(Reference.endpointSql(p.endpoint, c)))))
    }.toMap
  }

  private def clickArtifact(id: Long, traced: Boolean): (Seq[(GeneratedTab, Collected)], Double) = {
    val (tabs, ms) = h.request(traced, "ui.click") {
      val tabs = h.span(traced, "ui.exploration")(Interface.exploration(spec, h.registry, h.ctx, id))
      tabs.map(t => t -> h.spanRows(traced, s"ui.tab.${t.provider.endpoint}", (c: Collected) => c.rows)(
        Collected.view(t.view)))
    }
    h.probe(traced, "ui.context")(Interface.explorationContext(h.ctx, id))
    if (traced) tabs.foreach { case (t, _) => h.probeProvider(t.provider, t.inputs) }
    (tabs, ms)
  }

  private def openInterface(s: HumboldtSpec, traced: Boolean)
      : (Seq[(GeneratedTab, Collected)], Seq[(GeneratedTab, Collected)], Double) = {
    val ((overview, homeTabs), ms) = h.request(traced, "ui.open") {
      val model = h.span(traced, "ui.generate")(Interface.generate(s, h.registry, h.ctx))
      val overview = h.span(traced, "ui.overview")(model.tabs.map(t => t -> Collected.view(t.view)))
      val homeTabs = h.span(traced, "ui.home_page") {
        Interface.teamHomePage(s, h.registry, h.ctx, Team).map(t => t -> Collected.view(t.view))
      }
      (overview, homeTabs)
    }
    h.probe(traced, "spec.validate")(ProviderBinding.validate(s, h.registry))
    if (traced) (overview ++ homeTabs).foreach { case (t, _) => h.probeProvider(t.provider, t.inputs) }
    (overview, homeTabs, ms)
  }

  private final class ClickOp(id: Long, val sample: String) extends Op {
    val label = s"click $id"
    def run(traced: Boolean): (Double, Seq[String]) = {
      val (tabs, ms) = clickArtifact(id, traced)
      val want = expected(id)
      val got = tabs.map { case (t, c) => t.provider.name -> (t.inputs, c.ids) }.toMap
      val problems =
        (if (got.keySet == want.keySet) Nil
         else Seq(s"tabs ${got.keySet.toSeq.sorted} want ${want.keySet.toSeq.sorted}")) ++
        got.keySet.intersect(want.keySet).toSeq.sorted.flatMap { name =>
          val (inputs, ids) = got(name)
          want(name).ids.find(_._1 == inputs).map(_._2) match {
            case None => Seq(s"$name bound $inputs, want ${want(name).inputs}")
            case Some(w) if w != ids =>
              Seq(s"$name has ${ids.size} ids, want ${w.size}; missing ${(w -- ids).take(3)} " +
                s"extra ${(ids -- w).take(3)}")
            case _ => Nil
          }
        }
      (ms, problems)
    }
  }

  private final class OpenOp(val sample: String) extends Op {
    val label = "open"
    def run(traced: Boolean): (Double, Seq[String]) = {
      val (overview, homeTabs, ms) = openInterface(spec, traced)
      val wantOverview = order.filter(onOverview)
      def check(what: String, tabs: Seq[(GeneratedTab, Collected)], names: Seq[String]): Seq[String] = {
        val gotNames = tabs.map(_._1.provider.name)
        if (gotNames != names) Seq(s"$what tabs $gotNames want $names")
        else tabs.flatMap { case (t, c) =>
          val w = ref.ids(Reference.endpointSql(t.provider.endpoint, homeInputs(t.provider)))
          if (c.ids == w) Nil else Seq(s"$what tab ${t.provider.name} has ${c.ids.size} ids, want ${w.size}")
        }
      }
      (ms, check("overview", overview, wantOverview) ++ check("home page", homeTabs, home))
    }
  }

  private final class WriteOp(w: Write) extends Op {
    val label = s"write $w"
    val sample = ""
    override val repeatable = false
    def run(traced: Boolean): (Double, Seq[String]) = {
      val (next, ms) = h.request(traced, "ui.config") {
        w match {
          case Toggle(p) if onOverview(p) => Config.hideOn(spec, p, Surface.Overview)
          case Toggle(p)                  => Config.showOn(spec, p, Surface.Overview)
          case Reorder(names)             => Config.reorder(spec, names)
          case HomePage(names)            => Config.setTeamHomePage(spec, Team, names)
          case AddOrRemove if spec.provider(Extra.name).isDefined =>
            Config.removeProvider(spec, Extra.name)
          case AddOrRemove                => Config.addProvider(spec, Extra)
        }
      }
      spec = next
      w match {
        case Toggle(p) => onOverview = if (onOverview(p)) onOverview - p else onOverview + p
        case Reorder(names) =>
          order = names.filter(order.contains) ++ order.filterNot(names.contains)
        case HomePage(names) => home = names
        case AddOrRemove if order.contains(Extra.name) =>
          order = order.filterNot(_ == Extra.name)
          onOverview -= Extra.name
          home = home.filterNot(_ == Extra.name)
        case AddOrRemove =>
          order = order :+ Extra.name
          onOverview += Extra.name
      }
      (ms, Nil)
    }
  }

  def session: Seq[Op] = Seq(new OpenOp(secondary), new ClickOp(1L, primary)) ++
    (if (clickStep) Seq(new ClickOp(drawnClick, s"drawn.$primary"))
     else Seq(new WriteOp(write), new OpenOp("reopen")))

  /** A write with its regeneration and a click on AIRLINES, for the tour
    * that ends every traced run.
    */
  def tour: Seq[Op] = Seq(new WriteOp(write), new OpenOp("reopen"), new ClickOp(1L, primary))
}
