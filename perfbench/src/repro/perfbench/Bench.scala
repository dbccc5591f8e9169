package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import java.time.Instant
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.DataFrame
import repro.core.Maimon

final case class Metric(name: String, value: Double, unit: String)

/** Everything one benchmark process shares between its passes. */
final case class Ctx(
    session: Session,
    w: Workload,
    seed: Long,
    cfg: Maimon.Config,
    df: DataFrame,
    expectedDigest: Option[String], // None unless the data seed is the default
    outDir: Path,
)

/** One measured pass of the pipeline over the loaded DataFrame. `out` is
  * kept only when asked, so that otherwise it can be collected before the
  * next pass measures its heap.
  */
final case class Pass(
    runNs: Long,
    phases: Stopwatch,
    heapMb: Double,
    nSchemes: Int,
    errors: Vector[String],
    crashed: Boolean,
    summary: String,
    out: Option[PipelineOutput],
) {
  def ok: Boolean = errors.isEmpty
}

/** Entry point: `Bench --workload W --seed N --seconds S --trace 0|1
  * --start-epoch-ns T --out-dir D --expected F [--data-seed G]`. With
  * `--trace 0` it runs measured passes for S seconds and reports the
  * end-to-end metrics; with `--trace 1` it runs the traced run
  * ([[TracedRun]]) and reports the per-layer metrics. The last stdout line
  * is the JSON result.
  */
object Bench {

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = opt.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workloads.named(arg("workload"))
    val seed = arg("seed").toLong
    val seconds = arg("seconds").toDouble
    val trace = arg("trace") == "1"
    val outDir = Paths.get(arg("out-dir")).toAbsolutePath
    val dataSeed = opt.get("data-seed").map(_.toLong).orElse(w.defaultDataSeed)
    // Row order does not change the output, so the committed digest of the
    // default data holds for every seed.
    val expected =
      if (dataSeed == w.defaultDataSeed) Some(Expected.read(Paths.get(arg("expected")), w.name)) else None
    val startEpochNs = arg("start-epoch-ns").toLong

    val session = new Session(outDir)
    try {
      val sparkNs = epochNs() - startEpochNs
      // Set the data up three times and keep the last; set-up time is the
      // Spark start plus the median data set-up.
      var df: DataFrame = null
      val dataNs = (1 to 3).map { _ =>
        if (df != null) df.unpersist(blocking = true)
        val t0 = System.nanoTime()
        df = w.load(session.spark, dataSeed, seed).cache()
        df.count()
        System.nanoTime() - t0
      }
      val setupS = (sparkNs + median(dataNs.map(_.toDouble))) / 1e9
      val ctx = Ctx(session, w, seed, Maimon.Config(eps = w.eps), df, expected, outDir)
      println(s"perfbench workload=${w.name} seed=$seed data_seed=${dataSeed.fold("none")(_.toString)}" +
              s" rows=${df.count()} cols=${df.columns.length} eps=${w.eps} trace=${if (trace) 1 else 0}")
      println(f"setup: spark ${sparkNs / 1e9}%.3f s, data " +
              dataNs.map(d => f"${d / 1e9}%.3f").mkString("", "/", " s"))
      val (metrics, attempted, failed) =
        if (trace) TracedRun.run(ctx) else measured(ctx, seconds, setupS)
      for (m <- metrics) println(s"metric ${m.name} ${m.value} ${m.unit}")
      println(resultJson(failed == 0, attempted, failed, metrics))
    } finally session.stop()
  }

  /** Measured passes until `seconds` have elapsed, and at least the
    * workload's `passes`.
    */
  private def measured(ctx: Ctx, seconds: Double, setupS: Double): (Vector[Metric], Int, Int) = {
    val passes = mutable.ArrayBuffer.empty[Pass]
    val t0 = System.nanoTime()
    while (passes.isEmpty || (!passes.last.crashed &&
           (passes.size < ctx.w.passes || System.nanoTime() - t0 < seconds * 1e9))) {
      val p = pass(ctx, keep = false)
      println(s"pass ${passes.size + 1}: ${p.summary}")
      passes += p
    }
    val ok = passes.filter(_.ok)
    val timed = passes.filterNot(_.crashed)
    require(timed.nonEmpty, "every pass crashed")
    def med(f: Pass => Double): Double = median(timed.map(f).toVector)
    val failedPct = 100.0 * (passes.size - ok.size) / passes.size
    val metrics = Vector(
      Metric("setup_s", setupS, "s"),
      Metric("run_s", med(_.runNs / 1e9), "s"),
      Metric("heap_mb", med(_.heapMb), "MB"),
      Metric("passed_pct", 100.0 - failedPct, "%"),
    )
    // Shown for people, not part of the JSON result: too unsteady on a
    // shared machine on some workload, defined on one workload only, or zero
    // when all is well (see perfbench/README.md).
    println(f"extra encode_s ${med(_.phases.seconds("encode"))}%.4f s")
    println(f"extra mine_s ${med(_.phases.seconds("mine"))}%.4f s")
    println(f"extra schemes_s ${med(_.phases.seconds("schemes"))}%.4f s")
    println(f"extra schemes_per_s ${med(p => p.nSchemes / p.phases.seconds("schemes"))}%.1f 1/s")
    if (ctx.w.scoresQuality) println(f"extra quality_s ${med(_.phases.seconds("quality"))}%.4f s")
    println(f"extra failed_pct $failedPct%.1f %%")
    (metrics, passes.size, passes.size - ok.size)
  }

  /** One timed pipeline pass followed by its output checks. `heapMb` is the
    * heap its output (the oracle included) retains: heap in use after full
    * collections while the output is reachable, less the same once it is
    * dropped. It is NaN when the output is kept for the caller.
    */
  def pass(ctx: Ctx, keep: Boolean): Pass = {
    val sw = new Stopwatch
    val gc0 = Heap.gcMs()
    val t0 = System.nanoTime()
    try {
      var out = Pipeline.run(ctx.df, ctx.cfg, ctx.w.scoresQuality, sw)
      val runNs = System.nanoTime() - t0
      val gcMs = Heap.gcMs() - gc0
      val withOut = Heap.settledMb()
      // `out` must be the only reference to the output left in this frame
      // when it is dropped: `pass` runs too few times to be compiled, and an
      // interpreted frame keeps every local alive.
      val (errors, head, nSchemes) = describe(ctx, out, sw, runNs, gcMs)
      val kept = if (keep) Some(out) else None
      out = null
      val heapMb = if (keep) Double.NaN else withOut - Heap.settledMb()
      val summary = head + f"heap_mb=$heapMb%.2f " +
        (if (errors.isEmpty) "ok" else "FAILED: " + errors.take(5).mkString("; "))
      Pass(runNs, sw, heapMb, nSchemes, errors, crashed = false, summary, kept)
    } catch {
      case NonFatal(e) =>
        Pass(System.nanoTime() - t0, sw, 0.0, 0, Vector(e.toString), crashed = true,
             s"FAILED: $e", None)
    }
  }

  /** A pass's check errors, its summary line and its scheme count. */
  private def describe(ctx: Ctx, out: PipelineOutput, sw: Stopwatch, runNs: Long,
                       gcMs: Long): (Vector[String], String, Int) = {
    val (errors, digest) = check(ctx, out)
    val m = out.mining
    val nSchemes = out.schemes.schemes.size
    val head =
      f"run_s=${runNs / 1e9}%.3f mine_s=${sw.seconds("mine")}%.3f schemes_s=${sw.seconds("schemes")}%.4f " +
      (if (ctx.w.scoresQuality) f"quality_s=${sw.seconds("quality")}%.3f " else "") +
      s"gc_ms=$gcMs minseps=${m.nMinSeps} distinct_minseps=${m.distinctMinSeps.size} " +
      s"mvds=${m.mvds.size} schemes=$nSchemes " +
      f"worst_slack=${Checks.worstSlack(ctx.cfg, out)}%.4f digest=$digest "
    (errors, head, nSchemes)
  }

  /** The output checks plus, on the default data, the committed digest. */
  def check(ctx: Ctx, out: PipelineOutput): (Vector[String], String) = {
    val digest = Checks.digest(out, schemesComplete = !ctx.w.enumerationCapped)
    val digestErr = ctx.expectedDigest match {
      case Some(d) if d != digest => Vector(s"digest $digest differs from the committed $d")
      case _                      => Vector.empty
    }
    (Checks.errors(ctx.cfg, out) ++ digestErr, digest)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  private def epochNs(): Long = {
    val now = Instant.now()
    now.getEpochSecond * 1000000000L + now.getNano
  }

  def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
    s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

/** The committed digests of the default data, `perfbench/expected.json`:
  * a flat JSON object from workload name to hex digest.
  */
object Expected {
  def read(path: Path, workload: String): String = {
    val text = new String(Files.readAllBytes(path), "UTF-8")
    ("\"" + java.util.regex.Pattern.quote(workload) + "\"\\s*:\\s*\"([0-9a-f]+)\"").r
      .findFirstMatchIn(text).map(_.group(1))
      .getOrElse(throw new IllegalStateException(s"$path has no digest for $workload"))
  }
}
