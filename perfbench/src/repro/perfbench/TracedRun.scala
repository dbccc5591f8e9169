package repro.perfbench

import java.nio.file.Files
import scala.collection.mutable
import repro.core.{AttrSet, Mvd}
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle}
import repro.core.info.InfoCalc
import repro.core.mine.{FullMvdSearch, MinSepMiner, MvdMiner}
import repro.core.schema.{ASMiner, Compatibility, MaxIndependentSets}
import repro.util.Deadline

/** The traced run. Probes that split the layers further run first, after
  * one untimed minimal-separator mining that warms the oracle and the
  * separator search up: the minimal-separator phase alone, per-pair mining,
  * the scheme graph and its maximal independent sets, and the scoring of
  * one scheme. Besides their own
  * figures they warm every layer up. Then come an untraced pass, the traced
  * pass (the same calls with spans around each and the oracle wrapped in a
  * [[RecordingOracle]]) and another untraced pass; the tracing overhead is
  * the traced pass less the mean of the untraced ones, so that a drift of
  * the machine's speed over the run cancels to first order. It reports the
  * per-layer metrics and writes the spans as JSON under `<out-dir>/traces/`.
  */
object TracedRun {

  def run(ctx: Ctx): (Vector[Metric], Int, Int) = {
    val cfg = ctx.cfg
    val errors = mutable.ArrayBuffer.empty[String]
    def expect(ok: Boolean, what: => String): Unit = if (!ok) errors += what
    val tr = new Tracer
    val rel = EncodedRelation.fromDataFrame(ctx.df)
    val n = rel.n

    MvdMiner.mine(new InfoCalc(new LocalEntropyOracle(rel)), n, cfg.eps, cfg.mineTimeLimitMs,
                  minSepsOnly = true)

    // The minimal-separator phase alone, as the paper's Sec. 8.3 times it.
    tr.run = "minseps-only"
    val sepOracle = new LocalEntropyOracle(rel)
    tr.counters = () => (sepOracle.calls, sepOracle.computations, 0L)
    val sepOnly = tr("mine")(
      MvdMiner.mine(new InfoCalc(sepOracle), n, cfg.eps, cfg.mineTimeLimitMs, minSepsOnly = true))

    // Per-pair spans: drive the separator and full-MVD search pair by pair,
    // exactly as MvdMiner.mine does, on a fresh oracle.
    tr.run = "pairs"
    val pairsOracle = new LocalEntropyOracle(rel)
    tr.counters = () => (pairsOracle.calls, pairsOracle.computations, 0L)
    val (mvds, pairSeps) =
      tr("mine")(minePairByPair(new InfoCalc(pairsOracle), tr, n, cfg.eps, cfg.mineTimeLimitMs))
    val pairSpans = tr.spans.filter(s => s.run == "pairs" && s.name == "pair")

    // The scheme layer's graph and MIS enumeration, as ASMiner.mine runs them.
    tr.run = "schemes-probe"
    tr.counters = () => (0L, 0L, 0L)
    val m = mvds.size
    val adj = tr("graph")(
      Array.tabulate(m, m)((i, j) => i != j && Compatibility.incompatible(mvds(i), mvds(j))))
    val edges = (0 until m).map(i => (i + 1 until m).count(adj(i)(_))).sum
    var mis = 0
    tr("mis")(MaxIndependentSets.enumerate(m, adj, cfg.maxSchemes,
                                           Deadline.ofMs(cfg.schemaTimeLimitMs))(_ => mis += 1))

    // The lowest-J multi-relation scheme, scored once: the quality layer's
    // figures where the pipeline does not score, a warm-up where it does.
    val probeSchemes = ASMiner.mine(new InfoCalc(pairsOracle), mvds, AttrSet.range(n),
                                    cfg.maxSchemes, cfg.schemaTimeLimitMs).schemes
    val multi = probeSchemes.filter(_.schema.nRelations > 1)
    val best = (if (multi.nonEmpty) multi else probeSchemes)
      .minBy(s => (s.j, s.schema.bags.map(_.bits).mkString(",")))
    tr.run = "quality-probe"
    tr.counters = () => (0L, 0L, ctx.session.jobsStarted())
    tr("quality")(Pipeline.score(ctx.df, best, rel.size.toLong, tr))

    // An untraced pass before the traced one and one after it.
    val before = Bench.pass(ctx, keep = true)
    println(s"untraced pass before: ${before.summary}")
    val ref = before.out.getOrElse(throw new IllegalStateException("the untraced pass crashed"))

    // The traced pass: the pipeline's calls, with spans and a recording oracle.
    tr.run = "pipeline"
    var rec: RecordingOracle = null
    tr.counters = () => (
      if (rec == null) 0L else rec.calls,
      if (rec == null) 0L else rec.computations,
      ctx.session.jobsStarted())
    val out = tr("run")(Pipeline.run(ctx.df, cfg, ctx.w.scoresQuality, tr, { o =>
      rec = new RecordingOracle(o); rec
    }))
    errors ++= Bench.check(ctx, out)._1
    val pipeline = tr.spans.filter(_.run == "pipeline").toVector

    // Oracle compute time: the misses, timed where they happened.
    val missNs = rec.missNs
    val prefix = missNs.scanLeft(0L)(_ + _)
    for (s <- pipeline) s.computeNs = prefix(s.missesAtEnd.toInt) - prefix(s.missesAtStart.toInt)
    val hitNs = rec.hitNs
    def selfMs(s: Span): Double = (s.durNs - s.computeNs - (s.calls - s.misses) * hitNs) / 1e6

    val after = Bench.pass(ctx, keep = false)
    println(s"untraced pass after: ${after.summary}")

    // Every other path checked against the first untraced pass.
    expect(out.mining.mvds == ref.mining.mvds && out.mining.minSeps == ref.mining.minSeps,
           "the traced pass mined different MVDs")
    expect(out.schemes.schemes == ref.schemes.schemes, "the traced pass enumerated different schemes")
    expect(mvds == ref.mining.mvds && pairSeps == ref.mining.minSeps,
           "pair-by-pair mining differs from MvdMiner.mine")
    expect(sepOnly.minSeps == ref.mining.minSeps, "minSepsOnly mining found other separators")
    expect(probeSchemes == ref.schemes.schemes, "the probe's ASMiner.mine call enumerated other schemes")

    val scored = if (ctx.w.scoresQuality) out.quality.map(_.scheme) else Vector(best)
    val quality = tr.find(if (ctx.w.scoresQuality) "pipeline" else "quality-probe", "quality")
    val qualityBags = scored.map(_.schema.nRelations).sum

    val traceFile = ctx.outDir.resolve("traces").resolve(s"${ctx.w.name}-seed${ctx.seed}.json")
    Files.createDirectories(traceFile.getParent)
    Files.write(traceFile, tr.toJson.getBytes("UTF-8"))
    println(s"spans: ${tr.spans.size} written to $traceFile")
    for (e <- errors.take(5)) println(s"FAILED: $e")

    val runSpan = tr.find("pipeline", "run")
    val mine = tr.find("pipeline", "mine")
    val schemes = tr.find("pipeline", "schemes")
    val encode = tr.find("pipeline", "encode")
    val computeMs = missNs.sum / 1e6
    val distinct = ref.schemes.schemes.size
    val metrics = Vector(
      Metric("encode.ms", encode.durNs / 1e6, "ms"),
      Metric("encode.cells", out.rel.size.toDouble * out.rel.n, "count"),
      Metric("oracle.calls", rec.calls.toDouble, "count"),
      Metric("oracle.computations", rec.computations.toDouble, "count"),
      Metric("oracle.compute_ms", computeMs, "ms"),
      Metric("oracle.us_per_computation", computeMs * 1000.0 / math.max(1L, rec.computations), "us"),
      Metric("oracle.compute_share_of_mine", 100.0 * mine.computeNs / mine.durNs, "%"),
      Metric("oracle.hit_rate", 1.0 - rec.computations.toDouble / math.max(1L, rec.calls), "ratio"),
      Metric("oracle.hit_ns", hitNs, "ns"),
      Metric("search.self_ms", selfMs(mine), "ms"),
      Metric("search.minseps", ref.mining.nMinSeps.toDouble, "count"),
      Metric("search.distinct_minseps", ref.mining.distinctMinSeps.size.toDouble, "count"),
      Metric("search.mvds", ref.mining.mvds.size.toDouble, "count"),
      Metric("search.minsep_ms", tr.find("minseps-only", "mine").durNs / 1e6, "ms"),
      Metric("search.pairs", pairSpans.size.toDouble, "count"),
      Metric("search.pair_ms.max", pairSpans.map(_.durNs).max / 1e6, "ms"),
      Metric("schemes.self_ms", selfMs(schemes), "ms"),
      Metric("schemes.mvds_in", m.toDouble, "count"),
      Metric("schemes.graph_ms", tr.find("schemes-probe", "graph").durNs / 1e6, "ms"),
      Metric("schemes.graph_edges", edges.toDouble, "count"),
      Metric("schemes.mis", mis.toDouble, "count"),
      Metric("schemes.distinct", distinct.toDouble, "count"),
      Metric("schemes.distinct_per_mis", distinct.toDouble / math.max(1, mis), "ratio"),
      Metric("quality.ms", quality.durNs / 1e6, "ms"),
      Metric("quality.schemes", scored.size.toDouble, "count"),
      Metric("quality.bags", qualityBags.toDouble, "count"),
      Metric("quality.ms_per_bag", quality.durNs / 1e6 / math.max(1, qualityBags), "ms"),
      Metric("quality.spark_jobs", quality.jobs.toDouble, "count"),
      Metric("trace.overhead_s", (runSpan.durNs - (before.runNs + after.runNs) / 2.0) / 1e9, "s"),
    )
    val failedPasses = Seq(errors.isEmpty, before.ok, after.ok).count(!_)
    (metrics, 3, failedPasses)
  }

  /** The body of MvdMiner.mine, one span per attribute pair and one per
    * call into MinSepMiner and FullMvdSearch.
    */
  private def minePairByPair(calc: InfoCalc, tr: Tracer, n: Int, eps: Double,
                             timeLimitMs: Long): (Vector[Mvd], Map[(Int, Int), Vector[AttrSet]]) = {
    val deadline = Deadline.ofMs(timeLimitMs)
    val omega = AttrSet.range(n)
    val miner = new MinSepMiner(calc, omega, eps, deadline)
    val mvds = mutable.LinkedHashSet.empty[Mvd]
    val minSeps = mutable.LinkedHashMap.empty[(Int, Int), Vector[AttrSet]]
    for (a <- 0 until n if !deadline.exceeded; b <- a + 1 until n if !deadline.exceeded) tr("pair") {
      val seps = tr("mineMinSeps")(miner.mineMinSeps(a, b))
      if (seps.nonEmpty) minSeps((a, b)) = seps
      for (x <- seps if !deadline.exceeded) {
        // MvdMiner.mine's per-separator node cap
        tr("fullMvds")(FullMvdSearch.fullMvds(calc, omega, x, eps, a, b, k = Int.MaxValue, deadline,
                                              maxNodes = 20000)).foreach(mvds += _)
      }
    }
    (mvds.toVector, minSeps.toMap)
  }
}
