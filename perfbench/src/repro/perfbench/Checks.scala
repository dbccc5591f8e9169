package repro.perfbench

import java.security.MessageDigest
import repro.core.{JoinTree, Maimon, Mvd}
import repro.core.entropy.LocalEntropyOracle
import repro.core.info.InfoCalc

/** Output checks run on every pass, whatever the seed, and the digest that
  * pins the exact output on the default seed.
  */
object Checks {

  /** Tolerance for J recomputed on a fresh oracle: the partition cache may
    * intersect in another order, which reorders a floating-point sum.
    */
  val JTol: Double = 1e-9

  /** Everything wrong with one pass's output; empty when it is correct. */
  def errors(cfg: Maimon.Config, out: PipelineOutput): Vector[String] = {
    val errs = Vector.newBuilder[String]
    if (out.mining.timedOut) errs += "the mining deadline fired"
    if (out.schemes.timedOut) errs += "the scheme-enumeration deadline fired"
    val fresh = new InfoCalc(new LocalEntropyOracle(out.rel))
    for (m <- out.mining.mvds) {
      val j = fresh.jMvd(m)
      if (j > cfg.eps + InfoCalc.Tol) errs += s"MVD $m has J = $j > ε = ${cfg.eps}"
    }
    for (s <- out.schemes.schemes) {
      val bound = (s.schema.nRelations - 1) * cfg.eps
      if (JoinTree.fromSchema(s.schema).isEmpty || !JoinTree.gyoAcyclic(s.schema))
        errs += s"scheme ${s.schema} is not acyclic"
      else {
        val j = fresh.jSchema(s.schema)
        if (math.abs(j - s.j) > JTol) errs += s"scheme ${s.schema} reports J = ${s.j}, recomputed $j"
      }
      if (s.j > bound + InfoCalc.Tol) errs += s"scheme ${s.schema} has J = ${s.j} > (m-1)ε = $bound"
    }
    for (q <- out.quality if q.spuriousPct < -InfoCalc.Tol)
      errs += s"scheme ${q.scheme.schema} has E% = ${q.spuriousPct} < 0"
    errs.result()
  }

  /** Largest J(S) − (m−1)·ε over the schemes (Cor. 5.2 needs it ≤ 0). */
  def worstSlack(cfg: Maimon.Config, out: PipelineOutput): Double =
    out.schemes.schemes.map(s => s.j - (s.schema.nRelations - 1) * cfg.eps).maxOption.getOrElse(0.0)

  /** SHA-256 over the minimal separators per pair, M_ε, the scheme set when
    * the enumeration is complete, and S%/E% rounded to 3 decimals. All parts
    * are sorted, so the digest does not depend on discovery order.
    */
  def digest(out: PipelineOutput, schemesComplete: Boolean): String = {
    val lines = Vector.newBuilder[String]
    for (((a, b), seps) <- out.mining.minSeps.toVector.sortBy(_._1))
      lines += s"minsep $a,$b:" + seps.map(_.bits).sorted.mkString(",")
    lines ++= out.mining.mvds.map(m => "mvd " + canon(m)).sorted
    if (schemesComplete)
      lines ++= out.schemes.schemes.map(s => "scheme " + s.schema.bags.map(_.bits).mkString(",")).sorted
    lines ++= out.quality.map { q =>
      f"quality ${q.scheme.schema.bags.map(_.bits).mkString(",")}:${q.savingsPct}%.3f:${q.spuriousPct}%.3f"
    }.sorted
    val md = MessageDigest.getInstance("SHA-256")
    md.digest(lines.result().mkString("\n").getBytes("UTF-8")).map(b => f"$b%02x").mkString
  }

  private def canon(m: Mvd): String = s"${m.key.bits}:${m.deps.map(_.bits).mkString(",")}"
}
