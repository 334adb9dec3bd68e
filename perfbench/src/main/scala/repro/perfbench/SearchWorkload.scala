package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.functions.col
import repro.search.QueryParser
import repro.spec.{MetadataProviderSpec, Surface}
import repro.ui.{GeneratedTab, Interface, InterfaceModel}

/** `search`: a seeded typing session.
  *
  * The session types and submits the seven fixed queries, then one query
  * drawn from the seeded grammar, submitted globally or, as the seed
  * decides, as a filter on a seeded overview tab. Each query is typed left to right. A keystroke
  * inside a field value asks `Suggest.valuesFor`; a keystroke inside a key
  * or a provider-call name asks `completeKey` / `completeProviderCall`.
  */
final class SearchWorkload(h: Harness) extends Workload {
  import QExpr._

  /** The fixed queries and their value keystrokes; the drawn query forms
    * the `drawn` or `filter` series and its keystrokes `drawn.keystroke`.
    */
  val primary = "query"
  val secondary = "keystroke"

  private val spec = h.spec
  private val searchable = spec.providersOn(Surface.Search)
  private lazy val model: InterfaceModel = Interface.generate(spec, h.registry, h.ctx)
  private var turns: Vector[Turn] = Vector.empty
  private var tourFilter: Turn = _

  private final case class Keystroke(kind: Kind, typed: String)
  private final case class Turn(q: QExpr, text: String, keys: Vector[Keystroke], fixed: Boolean,
                                filter: Option[GeneratedTab], expected: Set[Long])

  private def providerFor(key: String): MetadataProviderSpec =
    searchable.find(_.searchKey.exists(_.equalsIgnoreCase(key))).get

  private def element(q: QExpr): (MetadataProviderSpec, Map[String, String]) = q match {
    case Field(k, v) =>
      val p = providerFor(k)
      (p, Map(p.inputs.head.name -> v))
    case Text(w) => (searchable.find(_.endpoint == "text_match").get, Map("q" -> w))
    case Call(n) =>
      (searchable.find(p => QueryParser.normalize(p.name) == n).get, Map.empty)
    case other => throw new IllegalArgumentException(s"not an element: $other")
  }

  /** `Suggest`'s default list length. */
  private val SuggestLimit = 20

  /** One query of each fixed shape, a filter and a keystroke of each kind,
    * with inputs the measured session does not repeat.
    */
  def warmUp(): Unit = {
    QueryGen.WarmUp.foreach(q =>
      model.compiler.search(render(q)).fold(e => sys.error(e), identity).collect())
    Interface.filterView(model, model.tabs.head.view, render(QueryGen.WarmUp.head))
      .fold(e => sys.error(e), identity).collect()
    model.suggest.valuesFor("owned by", "u")
    model.suggest.completeKey("ow")
    model.suggest.completeProviderCall(":re")
  }

  def prepare(ref: => Reference): Unit = {
    val r = ref
    val vocab = Vocabulary(
      users = h.ctx.catalog.users.select(col("user_name")).collect().map(_.getString(0))
        .filter(_.startsWith("user_")).sorted.toVector,
      words = h.ctx.catalog.artifacts.select(col("name")).collect()
        .flatMap(_.getString(0).toLowerCase.split("_")).filter(w => w.length > 2 && w.forall(_.isLetter))
        .distinct.sorted.toVector)
    val gen = new QueryGen(vocab, h.seed)
    val rnd = new Random(h.seed ^ 0x5eed)

    def suggestions(key: String, typed: String): Vector[String] = {
      val inputType = providerFor(key).inputs.head.inputType
      Reference.suggestSql(inputType, typed, SuggestLimit).map(r.strings).getOrElse(Vector.empty)
    }

    // The user types until the completion list offers what they want,
    // then picks it: a key or call name once it is the only completion, a
    // value once it is among the suggestions (values matching nothing are
    // typed in full). This also computes every keystroke's reference list.
    def keystrokes(q: QExpr): Vector[Keystroke] = segments(q).flatMap {
      case Segment(key, k: InKey) => typeUntil(key, k)(p => expectedKeys(p).size == 1)
      case Segment(name, InCall) => typeUntil(name, InCall)(p => expectedCalls(p).size == 1)
      case Segment(value, v: InValue) => typeUntil(value, v)(p => suggestions(v.key, p).contains(value))
      case _ => Vector.empty
    }

    def turn(q: QExpr, fixed: Boolean, filter: Option[GeneratedTab]): Turn = {
      val hits = r.ids(toSql(q, a => { val (p, in) = element(a); Reference.endpointSql(p.endpoint, in) }))
      val expected = filter match {
        case Some(t) => hits intersect r.ids(Reference.endpointSql(t.provider.endpoint, t.inputs))
        case None    => hits
      }
      Turn(q, render(q), keystrokes(q), fixed, filter, expected)
    }

    // The fixed queries come first, submitted globally; then the drawn one,
    // globally or as a filter. The tour always submits it as a filter.
    val drawn = gen.query()
    val tab = model.tabs(rnd.nextInt(model.tabs.size))
    tourFilter = turn(drawn, fixed = false, Some(tab))
    turns = QueryGen.Fixed.map(turn(_, fixed = true, None)) :+
      (if (rnd.nextBoolean()) tourFilter else turn(drawn, fixed = false, None))
    suggestRef = suggestions
  }

  private var suggestRef: (String, String) => Vector[String] = (_, _) => Vector.empty

  private def typeUntil(text: String, kind: Kind)(done: String => Boolean): Vector[Keystroke] = {
    val prefixes = (1 to text.length).map(text.take)
    val stop = prefixes.indexWhere(done)
    prefixes.take(if (stop < 0) text.length else stop + 1).map(Keystroke(kind, _)).toVector
  }

  private def expectedKeys(prefix: String): Seq[String] =
    searchable.flatMap(_.searchKey).map(k => s"$k:")
      .filter(_.toLowerCase.startsWith(prefix.trim.toLowerCase))

  private def expectedCalls(prefix: String): Seq[String] =
    searchable.map(p => QueryParser.normalize(p.name))
      .filter(_.startsWith(QueryParser.normalize(prefix)))

  private final class KeyOp(k: Keystroke, fixed: Boolean) extends Op {
    val label = s"keystroke ${k.kind} '${k.typed}'"
    val sample = k.kind match {
      case _: InValue => if (fixed) secondary else s"drawn.$secondary"
      case _          => ""
    }
    def run(traced: Boolean): (Double, Seq[String]) = k.kind match {
      case InValue(key) =>
        val (got, ms) = h.request(traced, "search.suggest") {
          model.suggest.valuesFor(key, k.typed)
        }
        val want = suggestRef(key, k.typed)
        (ms, if (got == want) Nil else Seq(s"suggested ${got.take(5)} want ${want.take(5)}"))
      case InKey(_) =>
        val (got, ms) = h.request(traced, "search.complete_key")(model.suggest.completeKey(k.typed))
        (ms, completions(got.map(_.completion), expectedKeys(k.typed)))
      case _ =>
        val (got, ms) = h.request(traced, "search.complete_key") {
          model.suggest.completeProviderCall(":" + k.typed)
        }
        (ms, completions(got.map(_.completion.drop(1).takeWhile(_ != '(')), expectedCalls(k.typed)))
    }
  }

  private def completions(got: Seq[String], want: Seq[String]): Seq[String] =
    if (got == want) Nil else Seq(s"completed $got want $want")

  private final class SubmitOp(t: Turn) extends Op {
    val label = s"${if (t.filter.isDefined) "filter" else "query"} ${t.text}"
    val sample = if (t.filter.isDefined) "filter" else if (t.fixed) primary else "drawn"
    def run(traced: Boolean): (Double, Seq[String]) = {
      val ((rows, idIdx, scoreIdx), ms) = t.filter match {
        case None => h.request(traced, "search.query") {
          val df = h.span(traced, "search.plan")(
            model.compiler.search(t.text).fold(e => sys.error(e), identity))
          h.span(traced, "search.optimize")(df.queryExecution.optimizedPlan)
          h.span(traced, "search.physical")(df.queryExecution.executedPlan)
          val rows = h.spanRows(traced, "search.execute", (a: Array[org.apache.spark.sql.Row]) =>
            a.length.toLong)(df.collect())
          (rows, df.schema.fieldIndex("artifact_id"), df.schema.fieldIndex("score"))
        }
        case Some(tab) => h.request(traced, "search.filter") {
          val df = Interface.filterView(model, tab.view, t.text).fold(e => sys.error(e), identity)
          (df.collect(), df.schema.fieldIndex("artifact_id"), df.schema.fieldIndex("score"))
        }
      }
      h.probe(traced, "search.parse")(QueryParser.fromSpec(spec).parse(t.text))
      if (traced) atoms(t.q).distinct.foreach { a => val (p, in) = element(a); h.probeProvider(p, in) }
      val ids = rows.map(_.getLong(idIdx))
      val ordered = rows.iterator.map(r => (-r.getDouble(scoreIdx), r.getLong(idIdx))).sliding(2)
        .forall { case Seq(a, b) => Ordering[(Double, Long)].lteq(a, b); case _ => true }
      val problems =
        (if (ids.toSet == t.expected && ids.length == t.expected.size) Nil
         else Seq(s"${ids.toSet.size} hits (${ids.length} rows), want ${t.expected.size}; " +
           s"missing ${(t.expected -- ids).take(3)} extra ${(ids.toSet -- t.expected).take(3)}")) ++
        (if (ordered) Nil else Seq("hits not ordered by score desc, artifact_id"))
      (ms, problems)
    }
  }

  def session: Seq[Op] = turns.flatMap(typed)

  private def typed(t: Turn): Seq[Op] = t.keys.map(new KeyOp(_, t.fixed)) :+ new SubmitOp(t)

  /** The flagship query typed and submitted, and the drawn query as a
    * filter, for the tour that ends every traced run.
    */
  def tour: Seq[Op] = typed(turns.head) :+ new SubmitOp(tourFilter)
}
