package repro.search

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.catalog.CatalogSchema
import repro.providers.{Contracts, ProviderBinding, ProviderContext, Registry}
import repro.ranking.Ranking
import repro.spec.{HumboldtSpec, MetadataProviderSpec, Surface}

/** Compiles query ASTs into Catalyst plans over the metadata catalog.
  *
  * Each query element resolves through the spec to a provider, fetches, and
  * reduces to a scored artifact-id set ("Each query element returns a list
  * of data artifacts", §5.3). Logical connectors become relational ops —
  * `&` an inner join summing scores, `|` a union-aggregate, negation an
  * anti-join against the universe — so a whole query executes as one
  * optimized Spark plan. *Search* runs against all artifacts; *filter* runs
  * against a view's scope (`§5.3`: "The difference between search and
  * filters is the set of data artifacts it is performed on").
  */
final class QueryCompiler(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext) {

  private val parser = QueryParser.fromSpec(spec)
  private val searchable = spec.providersOn(Surface.Search)

  /** Parse and execute; result carries full artifact metadata plus `score`,
    * ordered best-first. `scope` switches filter semantics.
    */
  def search(input: String, scope: Option[DataFrame] = None): Either[String, DataFrame] =
    parser.parse(input).map(q => run(q, scope))

  /** Execute a parsed query (id + score, unordered). */
  def compile(q: Query, scope: Option[DataFrame] = None): DataFrame = {
    val ids = eval(q, scope)
    scopeIds(scope).fold(ids)(ids.join(_, "artifact_id"))
  }

  /** compile + join back artifact metadata + order (what the UI lists). */
  def run(q: Query, scope: Option[DataFrame] = None): DataFrame = {
    val ids = compile(q, scope)
    ctx.enrichedArtifacts
      .join(ids.withColumnRenamed("artifact_id", "q_aid"),
        col("artifact_id") === col("q_aid"))
      .drop("q_aid")
      .orderBy(col(Ranking.ScoreColumn).desc, col("artifact_id"))
  }

  private def allIds: DataFrame =
    ctx.catalog.artifacts.select(col("artifact_id").cast("long"))

  /** The distinct artifact ids of a filter scope, if any. */
  private def scopeIds(scope: Option[DataFrame]): Option[DataFrame] =
    scope.map(_.select(col("artifact_id").cast("long")).distinct())

  private def eval(q: Query, scope: Option[DataFrame]): DataFrame = q match {
    case Query.Text(words) => evalText(words)

    case Query.FieldPred(key, value) =>
      val p = searchable.find(_.searchKey.exists(_.equalsIgnoreCase(key)))
        .getOrElse(throw new IllegalArgumentException(
          s"no search-visible provider with search key '$key'"))
      evalProvider(p, bindFirstInput(p, value))

    case Query.ProviderCall(name, args) =>
      val p = searchable.find(sp => QueryParser.normalize(sp.name) == name)
        .getOrElse(throw new IllegalArgumentException(
          s"no search-visible provider named '$name'"))
      evalProvider(p, bindPositional(p, args))

    case Query.And(l, r) =>
      val lv = eval(l, scope)
      val rv = eval(r, scope)
        .withColumnRenamed(Ranking.ScoreColumn, "r_score")
      lv.join(rv, "artifact_id")
        .withColumn(Ranking.ScoreColumn, col(Ranking.ScoreColumn) + col("r_score"))
        .drop("r_score")

    case Query.Or(l, r) =>
      Ranking.combine(Seq(eval(l, scope), eval(r, scope)))

    case Query.Not(inner) =>
      val universe = scopeIds(scope).getOrElse(allIds)
      universe.join(eval(inner, scope), Seq("artifact_id"), "left_anti")
        .withColumn(Ranking.ScoreColumn, lit(0.0))
  }

  private def evalText(words: String): DataFrame = {
    // Prefer a spec-declared text provider (so admins can weight or hide
    // it); fall back to the registered text_match endpoint with global
    // ranking, since conventional search is always available (§6.4).
    val specProvider = searchable.find(_.endpoint == "text_match")
    specProvider match {
      case Some(p) => evalProvider(p, Map("q" -> words))
      case None =>
        val impl = registry.get("text_match").getOrElse(
          throw new IllegalStateException("no text_match endpoint registered"))
        score(impl.fetch(ctx, Map("q" -> words)), impl.representation, spec.globalRanking)
    }
  }

  private def evalProvider(p: MetadataProviderSpec,
                           inputs: Map[String, String]): DataFrame = {
    val impl = ProviderBinding.resolve(p, registry)
    score(impl.fetch(ctx, inputs), impl.representation,
      spec.effectiveRanking(p))
  }

  /** Reduce any provider result to (artifact_id, score) using the
    * provider's effective ranking weights over enriched artifact fields.
    *
    * Artifact-shaped results already carry the enriched metadata columns,
    * so they are scored in place (one scan); only graph-shaped results —
    * whose rows are edges, not artifacts — need the join back to the
    * enriched relation.
    */
  private def score(df: DataFrame, rep: repro.spec.Representation,
                    weights: Seq[repro.spec.RankingWeight]): DataFrame = {
    val present = df.columns.map(_.toLowerCase).toSet
    val scorableInPlace = rep != repro.spec.Representation.Graph &&
      present.contains("artifact_id") &&
      weights.forall(w => !enrichedFields.contains(w.field.toLowerCase) ||
        present.contains(w.field.toLowerCase))
    if (scorableInPlace) {
      // Score is a row-level function of artifact fields, so duplicates
      // (e.g. one artifact under two badge categories) collapse safely.
      Ranking.scored(df, weights)
        .select(col("artifact_id").cast("long"), col(Ranking.ScoreColumn))
        .dropDuplicates("artifact_id")
    } else {
      val ids = Contracts.artifactIds(rep, df)
      val joined = ctx.enrichedArtifacts
        .join(ids.withColumnRenamed("artifact_id", "e_aid"),
          col("artifact_id") === col("e_aid"))
        .drop("e_aid")
      Ranking.scored(joined, weights)
        .select(col("artifact_id").cast("long"), col(Ranking.ScoreColumn))
    }
  }

  /** Fields known to live on the enriched artifact relation — a weight on
    * one of these must be computed there if the provider did not project it.
    */
  private val enrichedFields: Set[String] = CatalogSchema.enriched.all.toSet

  private def bindFirstInput(p: MetadataProviderSpec, value: String): Map[String, String] =
    p.inputs.headOption match {
      case Some(in) => Map(in.name -> value)
      case None => throw new IllegalArgumentException(
        s"provider '${p.name}' takes no input but got value '$value'")
    }

  private def bindPositional(p: MetadataProviderSpec, args: Seq[String]): Map[String, String] = {
    require(args.size <= p.inputs.size,
      s"provider '${p.name}' takes at most ${p.inputs.size} arguments, got ${args.size}")
    val bound = p.inputs.map(_.name).zip(args).toMap
    val unmet = p.requiredInputs.map(_.name).filterNot(bound.contains)
    require(unmet.isEmpty,
      s"provider '${p.name}' is missing required inputs: ${unmet.mkString(", ")}")
    bound
  }
}
