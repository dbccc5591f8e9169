package repro.exp

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{JoinTree, Maimon}
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle}
import repro.core.info.InfoCalc
import repro.core.mine.MvdMiner
import repro.core.quality.SchemaQuality
import repro.data.{MetanomeLite, NurseryData}

/** The paper's evaluation (Sec. 8), shared between the `jobs/` entrypoint
  * and the `bench/` suites. Every public method reproduces one exhibit and
  * returns structured rows; `format*` renders the table the paper prints.
  * Paper-reported numbers ride along where the exhibit has them (Table 2).
  * Every exhibit runs each of its datasets through one `sweep`.
  */
object Experiments {

  /** One (dataset, ε) point of a `sweep`: the dataset's one encoding and an
    * oracle of the point's own, so the runtime a row reports belongs to that
    * row alone, not to a memo warmed by the points before it. A point makes
    * one pipeline call: `mine` or `schemes`.
    */
  private final class Point(val rel: EncodedRelation, val eps: Double) {
    private val oracle = new LocalEntropyOracle(rel)

    /** M_ε (Fig. 3); `minSepsOnly` skips the full-MVD expansion. */
    def mine(ms: Long, minSepsOnly: Boolean = false): MvdMiner.Result =
      MvdMiner.mine(new InfoCalc(oracle), rel.n, eps, ms, minSepsOnly)

    /** Maimon: M_ε, then up to 2000 acyclic schemes, `ms` for each phase. */
    def schemes(ms: Long): Maimon.Result =
      Maimon.runWithOracle(oracle, rel.names, Maimon.Config(eps, ms, ms, 2000))
  }

  /** Encode `df` once, then make one row per threshold from its `Point`. */
  private def sweep[A](df: DataFrame, epss: Seq[Double])(row: Point => A): Vector[A] = {
    val rel = EncodedRelation.fromDataFrame(df)
    epss.toVector.map(eps => row(new Point(rel, eps)))
  }

  // ------------------------------------------------------------------
  // Table 2 — full-MVD mining at threshold 0 over the 20 datasets
  // ------------------------------------------------------------------

  final case class Table2Row(
      name: String, cols: Int, rows: Long,
      runtimeSec: Double, timedOut: Boolean,
      minSeps: Int, fullMvds: Int,
      paperRows: Long, paperRuntimeSec: Option[Double], paperFullMvds: Option[Int])

  def table2(spark: SparkSession, rowCap: Int, perDatasetMs: Long,
             names: Seq[String] = MetanomeLite.catalog.map(_.name)): Vector[Table2Row] =
    names.toVector.flatMap { name =>
      val e = MetanomeLite.entry(name)
      sweep(MetanomeLite.load(spark, name, rowCap), Seq(0.0)) { p =>
        val res = p.mine(perDatasetMs)
        Table2Row(name, p.rel.n, p.rel.size.toLong,
                  res.elapsedMs / 1000.0, res.timedOut,
                  res.distinctMinSeps.size, res.mvds.size,
                  e.paperRows, e.paperRuntimeSec, e.paperFullMvds)
      }
    }

  def formatTable2(rows: Seq[Table2Row]): String =
    fmt(
      Seq("dataset", "cols", "rows", "runtime[s]", "fullMVDs", "minSeps",
          "paperRows", "paperRuntime[s]", "paperFullMVDs"),
      rows.map { r =>
        Seq(r.name, r.cols, r.rows,
            if (r.timedOut) f"TL(${r.runtimeSec}%.1f)" else f"${r.runtimeSec}%.1f",
            if (r.timedOut) s"${r.fullMvds}*" else r.fullMvds.toString,
            r.minSeps, r.paperRows,
            r.paperRuntimeSec.map(t => f"$t%.1f").getOrElse("TL"),
            r.paperFullMvds.map(_.toString).getOrElse("NA"))
      })

  // ------------------------------------------------------------------
  // Fig. 10/11 — Nursery use case: schemes with J, savings S%, spurious E%
  // ------------------------------------------------------------------

  final case class SchemeRow(
      eps: Double, j: Double, nRelations: Int, width: Int, intWidth: Int,
      savingsPct: Double, spuriousPct: Double, schema: String, pareto: Boolean)

  def nurseryUseCase(spark: SparkSession,
                     thresholds: Seq[Double] = Seq(0.0, 0.1, 0.3, 0.5),
                     maxScored: Int = 40,
                     mineMsPerEps: Long = 120000L): Vector[SchemeRow] = {
    schemesWithQuality(NurseryData.load(spark), thresholds, maxScored, mineMsPerEps)
  }

  /** Mine schemes at each threshold, dedupe, score J / S% / E%, and mark the
    * pareto-optimal (S maximal, E minimal) schemes — the schemes the paper
    * details in Fig. 10 and connects by a line in Fig. 11.
    */
  def schemesWithQuality(df: DataFrame, thresholds: Seq[Double], maxScored: Int,
                         mineMsPerEps: Long): Vector[SchemeRow] = {
    val seen = mutable.HashSet.empty[Vector[Long]]
    // spread the (expensive) quality-scoring budget across thresholds so the
    // reported schemes span the J range like the paper's Fig. 10/11
    val perEps = math.max(1, maxScored / math.max(1, thresholds.size))
    val rows = sweep(df, thresholds) { p =>
      val fresh = p.schemes(mineMsPerEps).schemes.schemes.sortBy(_.j)
        .filter(s => s.schema.nRelations > 1 && !seen.contains(s.schema.bags.map(_.bits)))
      // evenly-spaced picks across the J range, so the scored sample spans
      // low-J (near-exact) through high-J schemes like the paper's Fig. 11
      val step = math.max(1, fresh.size / math.max(1, perEps))
      val nRows = p.rel.size.toLong
      fresh.indices.by(step).take(perEps).map(fresh)
        .filter(s => seen.add(s.schema.bags.map(_.bits)))
        .map { s =>
          val tree = JoinTree.fromSchema(s.schema).get
          SchemeRow(p.eps, s.j, s.schema.nRelations, s.schema.width, s.schema.intWidth,
                    SchemaQuality.savingsPct(p.rel, s.schema, nRows),
                    SchemaQuality.spuriousPct(p.rel, tree, nRows),
                    s.schema.render(p.rel.names), pareto = false)
        }
    }
    markPareto(rows.flatten)
  }

  /** Pareto-optimal rows: no other scheme has both higher savings and lower
    * spurious rate.
    */
  def markPareto(rows: Vector[SchemeRow]): Vector[SchemeRow] =
    rows.map { r =>
      val dominated = rows.exists(o =>
        o != r && o.savingsPct >= r.savingsPct && o.spuriousPct <= r.spuriousPct &&
          (o.savingsPct > r.savingsPct || o.spuriousPct < r.spuriousPct))
      r.copy(pareto = !dominated)
    }

  def formatSchemes(rows: Seq[SchemeRow]): String =
    fmt(
      Seq("eps", "J", "#rel", "width", "intW", "S[%]", "E[%]", "pareto", "schema"),
      rows.map(r => Seq(f"${r.eps}%.2f", f"${r.j}%.4f", r.nRelations, r.width,
                        r.intWidth, f"${r.savingsPct}%.1f", f"${r.spuriousPct}%.1f",
                        if (r.pareto) "*" else "", r.schema)))

  // ------------------------------------------------------------------
  // Fig. 12 — spurious tuple % vs J-measure buckets
  // ------------------------------------------------------------------

  final case class AccuracyRow(dataset: String, bucketLo: Double, bucketHi: Double,
                               nSchemes: Int, medianE: Double, maxE: Double)

  def accuracy(spark: SparkSession,
               datasets: Seq[String] = Seq("abalone", "breast_cancer", "echocardiogram", "bridges"),
               thresholds: Seq[Double] = Seq(0.0, 0.1, 0.3, 0.5),
               rowCap: Int = 5000, maxScored: Int = 30,
               mineMsPerEps: Long = 60000L): Vector[AccuracyRow] =
    datasets.toVector.flatMap { name =>
      val df = MetanomeLite.load(spark, name, rowCap)
      val rows = schemesWithQuality(df, thresholds, maxScored, mineMsPerEps)
      val buckets = Seq((0.0, 0.1), (0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 10.0))
      buckets.flatMap { case (lo, hi) =>
        val in = rows.filter(r => r.j >= lo && r.j < hi).map(_.spuriousPct).sorted
        if (in.isEmpty) None
        else Some(AccuracyRow(name, lo, hi, in.size, in(in.size / 2), in.last))
      }
    }

  def formatAccuracy(rows: Seq[AccuracyRow]): String =
    fmt(Seq("dataset", "J-bucket", "#schemes", "medianE[%]", "maxE[%]"),
        rows.map(r => Seq(r.dataset, f"[${r.bucketLo}%.1f,${r.bucketHi}%.1f)",
                          r.nSchemes, f"${r.medianE}%.1f", f"${r.maxE}%.1f")))

  // ------------------------------------------------------------------
  // Fig. 13 — row scalability of minimal-separator mining
  // ------------------------------------------------------------------

  final case class ScaleRow(dataset: String, eps: Double, rows: Long, cols: Int,
                            runtimeSec: Double, timedOut: Boolean, minSeps: Int)

  def rowScalability(spark: SparkSession,
                     datasets: Seq[String] = Seq("image", "foursquare", "ditag_feature"),
                     fractions: Seq[Double] = Seq(0.25, 0.5, 0.75, 1.0),
                     epss: Seq[Double] = Seq(0.0, 0.01, 0.1),
                     baseRows: Int = 40000, perPointMs: Long = 60000L): Vector[ScaleRow] =
    datasets.toVector.flatMap { name =>
      val full = MetanomeLite.load(spark, name, baseRows)
      fractions.flatMap { f =>
        minSepsPerEps(name, full.limit((baseRows * f).toInt), epss, perPointMs)
      }
    }

  // ------------------------------------------------------------------
  // Fig. 14 — column scalability of minimal-separator mining
  // ------------------------------------------------------------------

  def colScalability(spark: SparkSession,
                     datasets: Seq[String] = Seq("fd_reduced_30", "entity_source", "voter_state"),
                     fractions: Seq[Double] = Seq(0.25, 0.5, 0.75, 1.0),
                     epss: Seq[Double] = Seq(0.0, 0.01, 0.1),
                     rowCap: Int = 5000, perPointMs: Long = 30000L): Vector[ScaleRow] =
    datasets.toVector.flatMap { name =>
      val full = MetanomeLite.load(spark, name, rowCap)
      fractions.flatMap { f =>
        val k = math.max(3, (full.columns.length * f).toInt)
        val df = full.select(full.columns.toSeq.take(k).map(org.apache.spark.sql.functions.col): _*)
        minSepsPerEps(name, df, epss, perPointMs)
      }
    }

  /** Minimal-separator mining of `df` at each threshold (Sec. 8.3). */
  private def minSepsPerEps(name: String, df: DataFrame, epss: Seq[Double],
                            perPointMs: Long): Seq[ScaleRow] =
    sweep(df, epss) { p =>
      val res = p.mine(perPointMs, minSepsOnly = true)
      ScaleRow(name, p.eps, p.rel.size.toLong, p.rel.n,
               res.elapsedMs / 1000.0, res.timedOut, res.distinctMinSeps.size)
    }

  def formatScale(rows: Seq[ScaleRow]): String =
    fmt(Seq("dataset", "eps", "rows", "cols", "runtime[s]", "minSeps"),
        rows.map(r => Seq(r.dataset, r.eps, r.rows, r.cols,
                          if (r.timedOut) f"TL(${r.runtimeSec}%.1f)" else f"${r.runtimeSec}%.1f",
                          r.minSeps)))

  // ------------------------------------------------------------------
  // Fig. 15 — schema quality vs threshold
  // ------------------------------------------------------------------

  final case class QualityRow(dataset: String, eps: Double, nSchemes: Int,
                              maxRelations: Int, minWidth: Int, minIntWidth: Int)

  def quality(spark: SparkSession,
              datasets: Seq[String] = Seq("image", "abalone", "adult", "breast_cancer"),
              epss: Seq[Double] = Seq(0.0, 0.1, 0.3, 0.5),
              rowCap: Int = 5000, perEpsMs: Long = 60000L): Vector[QualityRow] =
    datasets.toVector.flatMap { name =>
      sweep(MetanomeLite.load(spark, name, rowCap), epss) { p =>
        val nontrivial = p.schemes(perEpsMs).schemes.schemes.filter(_.schema.nRelations > 1)
        if (nontrivial.isEmpty) QualityRow(name, p.eps, 0, 1, p.rel.n, 0)
        else QualityRow(name, p.eps, nontrivial.size,
                        nontrivial.map(_.schema.nRelations).max,
                        nontrivial.map(_.schema.width).min,
                        nontrivial.map(_.schema.intWidth).min)
      }
    }

  def formatQuality(rows: Seq[QualityRow]): String =
    fmt(Seq("dataset", "eps", "#schemes", "max#rel", "minWidth", "minIntW"),
        rows.map(r => Seq(r.dataset, r.eps, r.nSchemes, r.maxRelations,
                          r.minWidth, r.minIntWidth)))

  // ------------------------------------------------------------------
  // Fig. 18 — minimal separators vs full MVDs vs threshold
  // ------------------------------------------------------------------

  final case class FullMvdRow(dataset: String, eps: Double, minSeps: Int,
                              fullMvds: Int, runtimeSec: Double, timedOut: Boolean,
                              ratePerSec: Double)

  def fullMvdCounts(spark: SparkSession,
                    datasets: Seq[String] = Seq("abalone", "breast_cancer", "echocardiogram", "bridges"),
                    epss: Seq[Double] = Seq(0.0, 0.01, 0.05, 0.1, 0.3, 0.5),
                    rowCap: Int = 5000, perPointMs: Long = 60000L): Vector[FullMvdRow] =
    datasets.toVector.flatMap { name =>
      sweep(MetanomeLite.load(spark, name, rowCap), epss) { p =>
        val res = p.mine(perPointMs)
        val sec = math.max(res.elapsedMs / 1000.0, 1e-3)
        FullMvdRow(name, p.eps, res.distinctMinSeps.size, res.mvds.size,
                   sec, res.timedOut, res.mvds.size / sec)
      }
    }

  def formatFullMvd(rows: Seq[FullMvdRow]): String =
    fmt(Seq("dataset", "eps", "minSeps", "fullMVDs", "runtime[s]", "MVDs/s"),
        rows.map(r => Seq(r.dataset, r.eps, r.minSeps,
                          if (r.timedOut) s"${r.fullMvds}*" else r.fullMvds.toString,
                          f"${r.runtimeSec}%.1f", f"${r.ratePerSec}%.1f")))

  // ------------------------------------------------------------------

  /** Fixed-width ASCII table. */
  def fmt(headers: Seq[String], rows: Seq[Seq[Any]]): String = {
    val all = headers +: rows.map(_.map(_.toString))
    val widths = headers.indices.map(i => all.map(r => r(i).toString.length).max)
    def line(r: Seq[Any]): String =
      r.zipWithIndex.map { case (c, i) => c.toString.padTo(widths(i), ' ') }.mkString("  ")
    (line(headers) +: "-" * (widths.sum + 2 * (widths.size - 1)) +: rows.map(line)).mkString("\n")
  }
}
