package repro.perfbench

import scala.util.Random

/** The benchmark's own query AST. It is rendered to the program's query
  * syntax for typing and submission, and translated to SQL for the
  * reference answer, so it never goes through the program's parser.
  */
sealed trait QExpr
object QExpr {
  final case class Field(key: String, value: String) extends QExpr
  final case class Text(word: String) extends QExpr
  final case class Call(name: String) extends QExpr
  final case class And(l: QExpr, r: QExpr) extends QExpr
  final case class Or(l: QExpr, r: QExpr) extends QExpr
  final case class Not(x: QExpr) extends QExpr

  /** What a typed character belongs to: a search key, a field value, a
    * provider-call name, or anything else (operators, quotes, free text).
    */
  sealed trait Kind
  final case class InKey(key: String) extends Kind
  final case class InValue(key: String) extends Kind
  case object InCall extends Kind
  case object Other extends Kind

  final case class Segment(text: String, kind: Kind)

  def segments(q: QExpr): Vector[Segment] = q match {
    case Field(k, v) =>
      Vector(Segment(k, InKey(k)), Segment(": '", Other), Segment(v, InValue(k)), Segment("'", Other))
    case Text(w) => Vector(Segment(s"'$w'", Other))
    case Call(n) => Vector(Segment(":", Other), Segment(n, InCall), Segment("()", Other))
    case And(l, r) => segments(l) ++ (Segment(" & ", Other) +: segments(r))
    case Or(l, r) =>
      (Segment("(", Other) +: segments(l)) ++ (Segment(" | ", Other) +: segments(r)) :+
        Segment(")", Other)
    case Not(x: Field) => Segment("!", Other) +: segments(x)
    case Not(x: Text)  => Segment("!", Other) +: segments(x)
    case Not(x: Call)  => Segment("!", Other) +: segments(x)
    case Not(x) => (Segment("!(", Other) +: segments(x)) :+ Segment(")", Other)
  }

  def render(q: QExpr): String = segments(q).map(_.text).mkString

  def atoms(q: QExpr): Seq[QExpr] = q match {
    case And(l, r) => atoms(l) ++ atoms(r)
    case Or(l, r)  => atoms(l) ++ atoms(r)
    case Not(x)    => atoms(x)
    case atom      => Seq(atom)
  }

  /** Set-algebra SQL over `artifacts`: `&`, `|` and `!` become INTERSECT,
    * UNION and EXCEPT; each element becomes its provider's id subquery.
    */
  def toSql(q: QExpr, element: QExpr => String): String = q match {
    case And(l, r) => s"SELECT * FROM (${toSql(l, element)}) INTERSECT SELECT * FROM (${toSql(r, element)})"
    case Or(l, r)  => s"SELECT * FROM (${toSql(l, element)}) UNION SELECT * FROM (${toSql(r, element)})"
    case Not(x)    => s"SELECT artifact_id FROM artifacts EXCEPT SELECT * FROM (${toSql(x, element)})"
    case atom      => element(atom)
  }
}

/** Values the seeded grammar draws from, collected from the catalog. */
final case class Vocabulary(users: Vector[String], words: Vector[String])

/** Seeded query grammar over the spec's search keys. */
final class QueryGen(vocab: Vocabulary, seed: Long) {
  import QExpr._
  private val rnd = new Random(seed)

  private val Types = Vector("table", "visualization", "workbook", "dashboard")
  private val Badges = Vector("endorsed", "warning", "deprecated")
  private val Pinned = Vector("Alex", "Mike", "John Doe")
  private val Keys = Vector("type", "owned by", "created by", "badged", "badged by")

  private def pick[A](xs: Vector[A]): A = xs(rnd.nextInt(xs.size))

  private def user(): String =
    if (rnd.nextDouble() < 0.3) pick(Pinned) else pick(vocab.users)

  /** One query element; about one in seven values matches nothing. */
  def atom(): QExpr = {
    val miss = rnd.nextDouble() < 0.15
    val r = rnd.nextDouble()
    if (r < 0.55) {
      val key = pick(Keys)
      val value = key match {
        case "type"   => if (miss) "cube" else pick(Types)
        case "badged" => if (miss) "gold" else pick(Badges)
        case _        => if (miss) "nobody" else user()
      }
      Field(key, value)
    } else if (r < 0.85) Text(if (miss) "zebra" else pick(vocab.words))
    else Call("recent_documents")
  }

  /** A query with `&`, `|` and `!` nested to at most three levels. */
  def query(depth: Int = 0): QExpr =
    if (depth >= 3 || (depth > 0 && rnd.nextDouble() < 0.45)) atom()
    else rnd.nextInt(10) match {
      case n if n < 4 => And(query(depth + 1), query(depth + 1))
      case n if n < 7 => Or(query(depth + 1), query(depth + 1))
      case _          => Not(query(depth + 1))
    }
}

object QueryGen {
  import QExpr._

  /** T3's five query classes, then Task 3's two queries. */
  val Fixed: Vector[QExpr] = Vector(
    And(And(And(And(Field("type", "table"), Field("owned by", "Alex")),
      Field("badged", "endorsed")), Field("badged by", "Mike")), Text("sales")),
    And(Field("type", "table"), Field("badged", "endorsed")),
    And(Or(Field("badged", "warning"), Field("badged", "deprecated")), Not(Field("owned by", "Alex"))),
    And(Call("recent_documents"), Text("revenue")),
    Text("sales"),
    Field("created by", "John Doe"),
    And(Field("type", "workbook"), Field("created by", "John Doe")),
  )

  /** The same seven shapes with other values, for the warm-up, so that no
    * measured query repeats one the program has already answered.
    */
  val WarmUp: Vector[QExpr] = Vector(
    And(And(And(And(Field("type", "workbook"), Field("owned by", "Mike")),
      Field("badged", "warning")), Field("badged by", "Alex")), Text("review")),
    And(Field("type", "dashboard"), Field("badged", "warning")),
    And(Or(Field("badged", "endorsed"), Field("badged", "warning")), Not(Field("owned by", "Mike"))),
    And(Call("recent_documents"), Text("orders")),
    Text("airlines"),
    Field("created by", "Mike"),
    And(Field("type", "dashboard"), Field("created by", "Alex")),
  )
}
