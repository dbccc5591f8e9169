package repro.perfbench

import java.nio.file.Paths
import org.apache.spark.sql.DataFrame
import repro.core.Maimon
import repro.data.{MetanomeLite, RunningExample}

/** Pipeline-fidelity self-test: the benchmark's phase-by-phase pipeline must
  * return what `Maimon.run` returns, on the paper's running example and on a
  * small analog, and the default seed must reproduce `MetanomeLite.load`.
  * Runs after every build; a failure fails the build.
  * Usage: `SelfTest --out-dir D`.
  */
object SelfTest {

  def main(args: Array[String]): Unit = {
    val outDir = Paths.get(args.sliding(2).collectFirst { case Array("--out-dir", d) => d }
      .getOrElse(throw new IllegalArgumentException("missing --out-dir"))).toAbsolutePath
    val session = new Session(outDir)
    val spark = session.spark
    val failures =
      try {
        Vector(
          samePipeline("running example, eps=0.1", RunningExample.withRed(spark), 0.1),
          samePipeline("running example, eps=0", RunningExample.clean(spark), 0.0),
          samePipeline("bridges analog, eps=0", MetanomeLite.load(spark, "bridges"), 0.0),
          defaultSeed(session),
        ).flatten
      } finally session.stop()
    failures.foreach(f => println(s"selftest FAILED: $f"))
    if (failures.nonEmpty) sys.exit(1)
    println("selftest ok")
  }

  private def samePipeline(label: String, df: DataFrame, eps: Double): Option[String] = {
    val cfg = Maimon.Config(eps = eps)
    val want = Maimon.run(df, cfg)
    val got = Pipeline.run(df, cfg, scoreQuality = false, NoPhases)
    println(s"selftest $label: ${want.mvds.size} MVDs, ${want.schemes.schemes.size} schemes")
    if (got.mining.mvds != want.mining.mvds) Some(s"$label: MVDs differ from Maimon.run")
    else if (got.mining.minSeps != want.mining.minSeps) Some(s"$label: separators differ from Maimon.run")
    else if (got.schemes.schemes != want.schemes.schemes) Some(s"$label: schemes differ from Maimon.run")
    else if (want.mvds.isEmpty) Some(s"$label: Maimon.run found no MVDs, so nothing was compared")
    else None
  }

  private def defaultSeed(session: Session): Option[String] = {
    val w = Workloads.named("echo-search")
    val mine = w.load(session.spark, w.defaultDataSeed, rowSeed = 0L).collect().toSeq
    val theirs = MetanomeLite.load(session.spark, w.dataset).collect().toSeq
    if (mine == theirs) None else Some("the default data does not reproduce MetanomeLite.load")
  }
}
