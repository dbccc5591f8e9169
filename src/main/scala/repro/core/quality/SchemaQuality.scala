package repro.core.quality

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.DataFrame
import repro.core.{AttrSet, JoinTree, Schema}
import repro.core.entropy.EncodedRelation

/** Quality measures of a decomposition (paper Sec. 8.1/8.2/8.4):
  * spurious-tuple rate E%, cell savings S%, width and intersection width.
  *
  * Each measure works over the `Int` codes of an [[EncodedRelation]] in
  * memory (its `DataFrame` form encodes the DataFrame first); null is a
  * value like any other, so two nulls join. The join size
  * |R[Ω1] ⋈ … ⋈ R[Ωm]| is Yannakakis counting along the join tree: each
  * node sends its parent a map from separator value to the number of join
  * combinations of its subtree. The full (possibly astronomically larger)
  * join is never materialized — e.g. the all-singletons Nursery schema
  * joins to 3·5·4·4·3·2·3·3·5 = 64800 tuples from 32 projected cells.
  */
object SchemaQuality {

  /** |⋈_i R[Ωi]| for an acyclic schema, as a Double (counts can exceed
    * Long range for extreme schemas; the paper reports percentages).
    */
  def joinSize(rel: EncodedRelation, tree: JoinTree): Double = {
    // The message of `node` to its parent, keyed by the codes of separator
    // `sep` (the root's separator is empty: one empty key).
    def msg(node: Int, sep: AttrSet): Map[ArraySeq[Int], Double] = {
      val inbox = tree.children(node).map { ch =>
        val s = tree.bags(ch) & tree.bags(node)
        (cols(s), msg(ch, s))
      }
      val sepCols = cols(sep)
      distinctOn(rel, tree.bags(node)).groupMapReduce(key(rel, _, sepCols)) { r =>
        inbox.foldLeft(1.0) { case (acc, (c, m)) => acc * m.getOrElse(key(rel, r, c), 0.0) }
      }(_ + _)
    }

    val root = tree.parent.indexOf(-1)
    require(root >= 0, "join tree has no root")
    msg(root, AttrSet.empty).valuesIterator.sum
  }

  /** Spurious tuple percentage E = |⋈ R[Ωi] \ R| / N · 100 (Sec. 8.1).
    * The join of projections is a superset of the *distinct* tuples of R, so
    * the spurious count is the join size minus the distinct row count —
    * using the raw (multiset) N there would go negative on data with
    * duplicate rows.
    */
  def spuriousPct(rel: EncodedRelation, tree: JoinTree, nRows: Long): Double = {
    val distinctRows = distinctOn(rel, AttrSet.range(rel.n)).length.toDouble
    (joinSize(rel, tree) - distinctRows) / nRows.toDouble * 100.0
  }

  /** Total cells stored by the decomposition: Σ |distinct R[Ωi]| · |Ωi|. */
  def projectedCells(rel: EncodedRelation, schema: Schema): Long =
    schema.bags.map(bag => distinctOn(rel, bag).length.toLong * bag.size).sum

  /** Cell savings S = (cells(R) − cells(S)) / cells(R) · 100 (Sec. 8.1). */
  def savingsPct(rel: EncodedRelation, schema: Schema, nRows: Long): Double = {
    val totalCells = nRows.toDouble * rel.n
    (totalCells - projectedCells(rel, schema).toDouble) / totalCells * 100.0
  }

  // The same measures of a DataFrame, encoded once per call.
  def joinSize(df: DataFrame, tree: JoinTree): Double =
    joinSize(EncodedRelation.fromDataFrame(df), tree)
  def spuriousPct(df: DataFrame, tree: JoinTree, nRows: Long): Double =
    spuriousPct(EncodedRelation.fromDataFrame(df), tree, nRows)
  def projectedCells(df: DataFrame, schema: Schema): Long =
    projectedCells(EncodedRelation.fromDataFrame(df), schema)
  def savingsPct(df: DataFrame, schema: Schema, nRows: Long): Double =
    savingsPct(EncodedRelation.fromDataFrame(df), schema, nRows)

  private def cols(s: AttrSet): Array[Int] = s.toSeq.toArray

  /** The codes of row `r` at `cols`, with structural equality and hashing. */
  private def key(rel: EncodedRelation, r: Int, cols: Array[Int]): ArraySeq[Int] =
    ArraySeq.unsafeWrapArray(cols.map(rel.cols(_)(r)))

  /** One representative row id per distinct projection onto `s`. */
  private def distinctOn(rel: EncodedRelation, s: AttrSet): IndexedSeq[Int] = {
    val c = cols(s)
    (0 until rel.size).distinctBy(key(rel, _, c))
  }
}
