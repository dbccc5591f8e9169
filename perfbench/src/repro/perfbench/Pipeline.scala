package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.core.{AttrSet, JoinTree, Maimon}
import repro.core.entropy.{EncodedRelation, EntropyOracle, LocalEntropyOracle}
import repro.core.info.InfoCalc
import repro.core.mine.MvdMiner
import repro.core.quality.SchemaQuality
import repro.core.schema.ASMiner

/** Wraps one call into a layer: a stopwatch in measured passes, a span
  * recorder in the traced pass.
  */
trait Phases {
  def apply[A](name: String)(body: => A): A
}

/** Accumulated wall time per phase name. */
final class Stopwatch extends Phases {
  val ns: mutable.Map[String, Long] = mutable.LinkedHashMap.empty[String, Long]

  def apply[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally ns(name) = ns.getOrElse(name, 0L) + (System.nanoTime() - t0)
  }

  def seconds(name: String): Double = ns.getOrElse(name, 0L) / 1e9
}

object NoPhases extends Phases {
  def apply[A](name: String)(body: => A): A = body
}

final case class QualityRow(scheme: ASMiner.Scored, spuriousPct: Double, savingsPct: Double)

final case class PipelineOutput(
    rel: EncodedRelation,
    oracle: EntropyOracle,
    mining: MvdMiner.Result,
    schemes: ASMiner.Result,
    quality: Vector[QualityRow],
)

/** The calls `Maimon.run` makes, in its order and with its arguments, each
  * wrapped in a phase so it can be timed from outside the program; then,
  * when asked, the paper's quality measures (E% and S%) of every scheme.
  */
object Pipeline {

  def run(df: DataFrame, cfg: Maimon.Config, scoreQuality: Boolean, phase: Phases,
          wrapOracle: EntropyOracle => EntropyOracle = identity): PipelineOutput = {
    val rel = phase("encode")(EncodedRelation.fromDataFrame(df))
    val oracle = phase("oracle")(wrapOracle(new LocalEntropyOracle(rel)))
    val calc = new InfoCalc(oracle)
    val mining = phase("mine")(MvdMiner.mine(calc, rel.n, cfg.eps, cfg.mineTimeLimitMs))
    val schemes = phase("schemes")(
      ASMiner.mine(calc, mining.mvds, AttrSet.range(rel.n), cfg.maxSchemes, cfg.schemaTimeLimitMs))
    val quality =
      if (!scoreQuality) Vector.empty
      else phase("quality")(schemes.schemes.map(s => score(df, s, rel.size.toLong, phase)))
    PipelineOutput(rel, oracle, mining, schemes, quality)
  }

  def score(df: DataFrame, s: ASMiner.Scored, nRows: Long, phase: Phases): QualityRow = {
    val tree = JoinTree.fromSchema(s.schema).getOrElse(
      throw new IllegalStateException(s"scheme ${s.schema} is not acyclic"))
    val e = phase("quality.spurious")(SchemaQuality.spuriousPct(df, tree, nRows))
    val sv = phase("quality.savings")(SchemaQuality.savingsPct(df, s.schema, nRows))
    QualityRow(s, e, sv)
  }
}
