package repro.exp

import repro.SparkSpec

/** Smoke tests of the evaluation harness at tiny scale — the full-scale runs
  * live in bench/. These pin the output schema and basic invariants of every
  * exhibit generator.
  */
class ExperimentsSpec extends SparkSpec {

  test("table2 runs on the two smallest analogs and reports paper numbers") {
    val rows = Experiments.table2(spark, rowCap = 200, perDatasetMs = 20000L,
                                  names = Seq("bridges", "echocardiogram"))
    assert(rows.size == 2)
    val bridges = rows.find(_.name == "bridges").get
    assert(bridges.cols == 13)
    assert(bridges.rows == 108L)
    assert(bridges.paperRuntimeSec.contains(3.8))
    assert(bridges.paperFullMvds.contains(60))
    assert(Experiments.formatTable2(rows).contains("bridges"))
  }

  test("fullMvdCounts: eps=0 count of full MVDs >= count of minimal separators") {
    val rows = Experiments.fullMvdCounts(spark, datasets = Seq("bridges"),
                                         epss = Seq(0.0, 0.3), rowCap = 200,
                                         perPointMs = 20000L)
    assert(rows.size == 2)
    rows.filterNot(_.timedOut).foreach { r =>
      assert(r.fullMvds >= r.minSeps || r.minSeps == 0)
    }
    assert(Experiments.formatFullMvd(rows).nonEmpty)
  }

  test("rowScalability emits one row per (dataset, fraction, eps)") {
    val rows = Experiments.rowScalability(spark, datasets = Seq("image"),
                                          fractions = Seq(0.5, 1.0),
                                          epss = Seq(0.0), baseRows = 400,
                                          perPointMs = 20000L)
    assert(rows.size == 2)
    assert(rows.map(_.rows).distinct.size == 2)
    assert(Experiments.formatScale(rows).contains("image"))
  }

  test("colScalability reduces the column count") {
    val rows = Experiments.colScalability(spark, datasets = Seq("sg_bioentry"),
                                          fractions = Seq(0.5, 1.0),
                                          epss = Seq(0.0), rowCap = 300,
                                          perPointMs = 20000L)
    assert(rows.size == 2)
    assert(rows.map(_.cols).distinct.size == 2)
    assert(rows.maxBy(_.cols).cols == 7)
  }

  test("quality rows carry monotone-threshold schema stats") {
    val rows = Experiments.quality(spark, datasets = Seq("bridges"),
                                   epss = Seq(0.0, 0.5), rowCap = 200,
                                   perEpsMs = 20000L)
    assert(rows.size == 2)
    assert(Experiments.formatQuality(rows).contains("bridges"))
  }

  test("schemesWithQuality scores distinct multi-relation schemes and marks a pareto front") {
    val rows = Experiments.schemesWithQuality(repro.data.RunningExample.withRed(spark),
                                              thresholds = Seq(0.0, 0.8), maxScored = 6,
                                              mineMsPerEps = 20000L)
    assert(rows.nonEmpty)
    rows.foreach { r =>
      assert(r.nRelations >= 2, r.schema)
      assert(r.spuriousPct >= 0.0, r.schema)
    }
    assert(rows.map(_.schema).distinct.size == rows.size)
    assert(rows.exists(_.pareto))
  }

  test("markPareto marks non-dominated schemes only") {
    def row(s: Double, e: Double) =
      Experiments.SchemeRow(0.1, 0.1, 2, 3, 1, s, e, "x", pareto = false)
    val rows = Experiments.markPareto(Vector(row(90, 10), row(80, 20), row(95, 5)))
    // (95,5) dominates both others
    assert(rows.count(_.pareto) == 1)
    assert(rows.find(_.savingsPct == 95.0).get.pareto)
  }

  test("fmt aligns columns and separates header") {
    val s = Experiments.fmt(Seq("a", "bb"), Seq(Seq(1, 2), Seq(33, 4)))
    val lines = s.split("\n")
    assert(lines.length == 4)
    assert(lines(0).startsWith("a"))
    assert(lines(1).forall(_ == '-'))
  }
}
