package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Paper Table 2: runtime and #full MVDs of mining at threshold 0 over the
  * 20 dataset analogs (row-capped; per-dataset time limit stands in for the
  * paper's 5-hour TL). Paper numbers are printed alongside — see
  * EXPERIMENTS.md for the comparison discussion.
  */
class Table2Bench extends SparkSpec {

  private val rowCap = sys.env.getOrElse("BENCH_ROWCAP", "4000").toInt
  private val perDatasetMs = sys.env.getOrElse("BENCH_TL_MS", "60000").toLong

  test("Table 2: full MVD mining at eps=0 over all 20 dataset analogs") {
    val rows = Experiments.table2(spark, rowCap, perDatasetMs)
    println()
    println(s"=== Table 2 (rowCap=$rowCap, TL=${perDatasetMs}ms) ===")
    println(Experiments.formatTable2(rows))
    println()

    assert(rows.size == 20)
    // small, fast datasets must finish and find structure, as in the paper
    val bridges = rows.find(_.name == "bridges").get
    assert(!bridges.timedOut, "bridges should finish well within the limit")
    assert(bridges.fullMvds > 0, "bridges analog should contain full MVDs")
    val echo = rows.find(_.name == "echocardiogram").get
    assert(!echo.timedOut && echo.fullMvds > 0)
    // at eps=0 every completed run finds one full MVD per minimal separator
    rows.filterNot(_.timedOut).foreach { r =>
      assert(r.runtimeSec <= perDatasetMs / 1000.0 + 5.0)
      assert(r.fullMvds == r.minSeps, s"${r.name}: ${r.fullMvds} full MVDs vs ${r.minSeps} minseps")
    }
    // the widest datasets are the expensive ones — same shape as the paper,
    // where Census (42) and Voter State (45) hit the TL
    val wide = rows.filter(_.cols >= 40)
    val narrow = rows.filter(_.cols <= 10)
    assert(narrow.forall(!_.timedOut), "7-10 column analogs must finish")
    assert(wide.forall(r => r.timedOut || r.runtimeSec > narrow.map(_.runtimeSec).max),
           "wide analogs should be the slow ones")
  }
}
