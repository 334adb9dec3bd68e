package repro.perfbench

/** Per-layer metrics of a traced run, computed from its spans.
  *
  * Times are medians over the spans of one name; counts are medians of the
  * Spark work inside those spans. Each metric should move the end-to-end
  * metric named in perfbench/NOTES.md, on the workload named there.
  */
object PerLayer {
  /** Endpoints whose fetch is probed, and exploration tabs by endpoint. */
  val Endpoints: Seq[String] = Seq("recents", "frequent", "owned_by", "badged", "badged_by",
    "of_type", "team_docs", "team_frequent", "lineage_children", "joinable", "embedding", "text_match")
  val ExplorationTabs: Seq[String] = Seq("owned_by", "badged", "of_type", "team_docs",
    "team_frequent", "lineage_children", "joinable")
  val Layers: Seq[String] = Seq("search", "providers", "ui", "spec", "catalog", "extract", "datasource")

  def metrics(t: Tracer, h: Harness, w: Workload, cachedMb: Double): Seq[(String, Double, String)] = {
    def spans(name: String): Seq[Span] = {
      val s = t.named(name)
      require(s.nonEmpty, s"no '$name' span in this traced run")
      s
    }
    def ms(name: String): Double = Stats.median(spans(name).map(_.ms))
    def count(name: String)(f: Span => Double): Double = Stats.median(spans(name).map(f))
    def jobs(name: String): Double = count(name)(_.counts.jobs.toDouble)
    def tasks(name: String): Double = count(name)(_.counts.tasks.toDouble)
    def rows(name: String): Double = count(name)(_.rows.toDouble)
    def overhead(series: String): Double =
      Stats.median(h.samples(s"traced.$series").toSeq) - Stats.median(h.samples(series).toSeq)

    val self = t.selfMsByLayer
    Seq(
      ("search.parse_ms", ms("search.parse"), "ms"),
      ("search.plan_ms", ms("search.plan"), "ms"),
      ("search.optimize_ms", ms("search.optimize"), "ms"),
      ("search.physical_ms", ms("search.physical"), "ms"),
      ("search.execute_ms", ms("search.execute"), "ms"),
      ("search.jobs", jobs("search.query"), "count"),
      ("search.stages", count("search.query")(_.counts.stages.toDouble), "count"),
      ("search.tasks", tasks("search.query"), "count"),
      ("search.task_ms", count("search.query")(_.counts.taskMs.toDouble), "ms"),
      ("search.rows", rows("search.execute"), "count"),
      ("search.filter_ms", ms("search.filter"), "ms"),
      ("search.filter_jobs", jobs("search.filter"), "count"),
      ("search.filter_tasks", tasks("search.filter"), "count"),
      ("search.suggest_ms", ms("search.suggest"), "ms"),
      ("search.suggest_p90_ms", Stats.quantile(spans("search.suggest").map(_.ms), 0.9), "ms"),
      ("search.suggest_jobs", jobs("search.suggest"), "count"),
      ("search.suggest_tasks", tasks("search.suggest"), "count"),
      ("search.complete_key_ms", ms("search.complete_key"), "ms"),
    ) ++ Endpoints.flatMap(e => Seq(
      (s"providers.fetch_ms.$e", ms(s"providers.fetch.$e"), "ms"),
      (s"providers.fetch_jobs.$e", jobs(s"providers.fetch.$e"), "count"),
    )) ++ Seq(
      ("providers.enriched_ms", ms("providers.enriched"), "ms"),
      ("ui.context_ms", ms("ui.context"), "ms"),
      ("ui.context_jobs", jobs("ui.context"), "count"),
      ("ui.exploration_ms", ms("ui.exploration"), "ms"),
      ("ui.exploration_jobs", jobs("ui.exploration"), "count"),
    ) ++ ExplorationTabs.flatMap(e => Seq(
      (s"ui.tab_ms.$e", ms(s"ui.tab.$e"), "ms"),
      (s"ui.tab_jobs.$e", jobs(s"ui.tab.$e"), "count"),
      (s"ui.tab_rows.$e", rows(s"ui.tab.$e"), "count"),
    )) ++ Seq(
      ("ui.click_jobs", jobs("ui.click"), "count"),
      ("ui.click_tasks", tasks("ui.click"), "count"),
      ("ui.config_ms", ms("ui.config"), "ms"),
      ("spec.validate_ms", ms("spec.validate"), "ms"),
      ("ui.generate_ms", ms("ui.generate"), "ms"),
      ("ui.overview_ms", ms("ui.overview"), "ms"),
      ("ui.home_page_ms", ms("ui.home_page"), "ms"),
      ("ui.open_jobs", jobs("ui.open"), "count"),
      ("catalog.build_ms", ms("catalog.build"), "ms"),
      ("catalog.cached_mb", cachedMb, "MiB"),
      ("extract.sketch_ms", ms("extract.sketch"), "ms"),
      ("extract.sketch_jobs", jobs("extract.sketch"), "count"),
      ("extract.jobs_per_column", count("extract.sketch")(s => s.counts.jobs.toDouble / s.rows), "jobs/column"),
      ("extract.edges_ms", ms("extract.edges"), "ms"),
      ("extract.embedding_ms", ms("extract.embedding"), "ms"),
      ("extract.embedding_jobs", jobs("extract.embedding"), "count"),
      ("datasource.scan_ms", ms("datasource.scan"), "ms"),
      ("datasource.scan_tasks", tasks("datasource.scan"), "count"),
      ("datasource.datasets", rows("datasource.scan"), "count"),
      ("trace.overhead_primary_ms", overhead(w.primary), "ms"),
      ("trace.overhead_secondary_ms", overhead(w.secondary), "ms"),
    ) ++ Layers.map(l => (s"$l.self_ms", self.getOrElse(l, 0.0), "ms"))
  }
}
