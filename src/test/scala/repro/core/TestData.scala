package repro.core

import scala.util.Random
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle}
import repro.core.info.InfoCalc

/** Helpers for the unit tests: small random relations and their calculators. */
object TestData {

  /** A relation from row-major codes (re-encoded per column). */
  def fromRows(names: Vector[String], rows: Array[Array[Int]]): EncodedRelation =
    EncodedRelation.fromTuples(names, rows.map(_.toSeq).toSeq)

  /** Random relation with `nCols` columns over per-column domains of size
    * `domain`, deterministic in `seed`.
    */
  def randomRelation(nCols: Int, nRows: Int, domain: Int, seed: Long): EncodedRelation = {
    val rnd = new Random(seed)
    val names = Vector.tabulate(nCols)(i => ('A' + i).toChar.toString)
    val rows = Array.fill(nRows)(Array.fill(nCols)(rnd.nextInt(domain)))
    fromRows(names, rows)
  }

  /** Relation where col2 = f(col0) and col3 ⊥ (col0,col1): plants an exact
    * FD and near-independence, so exact and approximate MVDs both exist.
    */
  def structuredRelation(nRows: Int, seed: Long): EncodedRelation = {
    val rnd = new Random(seed)
    val rows = Array.fill(nRows) {
      val a = rnd.nextInt(4)
      val b = rnd.nextInt(3)
      val c = (a * 7 + 3) % 4 // FD: A → C
      val d = rnd.nextInt(3)  // independent
      Array(a, b, c, d)
    }
    fromRows(Vector("A", "B", "C", "D"), rows)
  }

  def calcOf(rel: EncodedRelation): InfoCalc = new InfoCalc(new LocalEntropyOracle(rel))

  /** All set partitions of the elements of `s` (Bell-number many — tests
    * keep |s| ≤ 6).
    */
  def allPartitions(s: AttrSet): Vector[Vector[AttrSet]] = {
    val elems = s.toSeq.toList
    def go(rem: List[Int]): Vector[Vector[AttrSet]] = rem match {
      case Nil => Vector(Vector.empty)
      case x :: rest =>
        go(rest).flatMap { p =>
          val withNew = p :+ AttrSet.single(x)
          val intoExisting = p.indices.map(i => p.updated(i, p(i) + x))
          withNew +: intoExisting.toVector
        }
    }
    go(elems)
  }
}
