package repro.core.entropy

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.core.AttrSet

/** A relation dictionary-encoded to `Int` codes, stored column-major.
  *
  * This is the input format of [[LocalEntropyOracle]]; it is produced from a
  * Spark DataFrame (one `collect`, the only full scan the mining phase ever
  * does — mirroring the paper, which loads CNT/TID tables into main-memory
  * H2 once and never rescans the base data).
  *
  * `cols(c)(r)` is the code of row `r` in column `c`; the codes of column `c`
  * are exactly `0 until domain(c)`, in order of first appearance. The arrays
  * are shared with their readers and must not be mutated.
  */
final class EncodedRelation private (
    val names: Vector[String],
    private[core] val cols: Array[Array[Int]],
    private[core] val domain: Array[Int],
    val size: Int) {
  EncodedRelation.requireWidth(names.size)

  def n: Int = names.size
}

object EncodedRelation {

  /** Attribute sets are 64-bit masks ([[AttrSet]]). */
  private val MaxColumns = 64

  private def requireWidth(n: Int): Unit =
    require(n <= MaxColumns,
      s"relation has $n columns; at most $MaxColumns are supported (attribute sets are 64-bit masks)")

  /** Collect and dictionary-encode a DataFrame (null becomes its own code). */
  def fromDataFrame(df: DataFrame): EncodedRelation = {
    val names = df.columns.toVector
    requireWidth(names.size)
    val collected = df.collect()
    encode(names, collected.length) { (r, c) =>
      val row = collected(r)
      if (row.isNullAt(c)) NullToken else row.get(c)
    }
  }

  /** Build from in-memory tuples (tests, running example). */
  def fromTuples(names: Vector[String], tuples: Seq[Seq[Any]]): EncodedRelation = {
    val ts = tuples.toIndexedSeq
    ts.foreach(t => require(t.size == names.size, "tuple arity mismatch"))
    encode(names, ts.size)((r, c) => ts(r)(c))
  }

  private def encode(names: Vector[String], nRows: Int)(value: (Int, Int) => Any): EncodedRelation = {
    val dicts = Array.fill(names.size)(new mutable.HashMap[Any, Int]())
    val cols = Array.fill(names.size)(new Array[Int](nRows))
    var r = 0
    while (r < nRows) {
      var c = 0
      while (c < names.size) {
        val d = dicts(c)
        cols(c)(r) = d.getOrElseUpdate(value(r, c), d.size)
        c += 1
      }
      r += 1
    }
    new EncodedRelation(names, cols, dicts.map(_.size), nRows)
  }

  private object NullToken
}

/** Main-memory entropy oracle over stripped partitions (PLIs).
  *
  * The partition of a column set α groups rows by their values on α. Rows in
  * singleton clusters are stripped: they contribute 0 to the entropy sum and
  * never need to be tracked (paper Sec. 6.3, idea (1)). A stripped partition
  * is one `Array[Int]` of row ids, cluster after cluster, whose last row is
  * stored complemented (`~r`, negative) to end the cluster; it never holds
  * more cells than there are rows, and it carries its own Σ c·log2 c.
  *
  * The partition of α ∪ {c} refines that of α by column c's codes (idea (2),
  * the TID-join, as in TANE's partition product): each cluster of α is split
  * by counting its rows per code in scratch arrays indexed by code, so the
  * cost is O(|stripped rows of α|) and the relation's columns are read in
  * place. A partition is built from the largest cached strict subset of α,
  * refining by the remaining columns one at a time. Partitions are cached
  * LRU (singles are pinned); entropies are memoized unboundedly in an
  * open-addressing `Long`→`Double` table.
  *
  * This is our analog of the paper's main-memory H2 CNT/TID engine.
  */
final class LocalEntropyOracle(rel: EncodedRelation, partitionCacheCap: Int = 256)
    extends EntropyOracle {
  import LocalEntropyOracle._

  private val nR = rel.size
  def nAttrs: Int = rel.n
  def nRows: Long = nR.toLong

  private var callCount = 0L
  private var compCount = 0L
  def calls: Long = callCount
  def computations: Long = compCount

  private val hCache = new LongDoubleMap

  // LRU partition cache (access-order LinkedHashMap), singles pinned aside.
  private val partCache = new java.util.LinkedHashMap[Long, Pli](64, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[Long, Pli]): Boolean =
      size() > partitionCacheCap
  }

  // Refinement scratch: per-code counts (all 0 between refinements) and
  // write positions, the codes seen in the current cluster, and the output.
  private val maxDomain = rel.domain.foldLeft(0)(math.max)
  private val count = new Array[Int](maxDomain)
  private val next = new Array[Int](maxDomain)
  private val touched = new Array[Int](maxDomain)
  private val out = new Array[Int](nR)

  /** Stripped partitions for single columns: the one-cluster partition of
    * all rows, refined by each column.
    */
  private val singles: Array[Pli] = {
    val all = Array.tabulate(nR)(identity)
    if (nR >= 2) all(nR - 1) = ~all(nR - 1)
    val top = new Pli(if (nR >= 2) all else Array.emptyIntArray, 0.0)
    Array.tabulate(rel.n)(refine(top, _))
  }

  def entropy(x: AttrSet): Double = {
    callCount += 1
    val h = hCache.get(x.bits)
    if (!h.isNaN) h
    else {
      val v = compute(x)
      hCache.put(x.bits, v)
      v
    }
  }

  private def compute(x: AttrSet): Double = {
    compCount += 1
    if (x.isEmpty || nR == 0) return 0.0
    EntropyOracle.fromGroupSizes(nRows, partition(x).sumClog2C)
  }

  /** Partition for α: start from the largest cached subset, refine by the
    * remaining columns.
    */
  private def partition(x: AttrSet): Pli = {
    if (x.size == 1) return singles(x.head)
    val cached = partCache.get(x.bits)
    if (cached != null) return cached
    // largest cached strict subset of x (singles always qualify)
    var bestBits = 0L
    var bestSize = 0
    val it = partCache.keySet().iterator()
    while (it.hasNext) {
      val k = it.next()
      val ks = AttrSet(k)
      if (ks.strictSubsetOf(x) && ks.size > bestSize) { bestBits = k; bestSize = ks.size }
    }
    var acc: Pli = null
    var remaining = x
    if (bestSize > 0) {
      acc = partCache.get(bestBits)
      remaining = x.diff(AttrSet(bestBits))
    }
    remaining.toSeq.foreach { c =>
      acc = if (acc == null) singles(c) else refine(acc, c)
    }
    partCache.put(x.bits, acc)
    acc
  }

  /** Split every cluster of `p` by the codes of column `c`; sub-clusters of
    * one row are stripped.
    */
  private def refine(p: Pli, c: Int): Pli = {
    val code = rel.cols(c)
    val in = p.rows
    var len = 0
    var sum = 0.0
    var start = 0
    while (start < in.length) {
      // count the cluster's rows per code, up to its complemented last row
      var nTouched = 0
      var i = start
      var more = true
      while (more) {
        val x = in(i)
        more = x >= 0
        val v = code(x ^ (x >> 31))
        if (count(v) == 0) { touched(nTouched) = v; nTouched += 1 }
        count(v) += 1
        i += 1
      }
      val end = i
      // give each sub-cluster of two or more rows its slice of `out`
      var t = 0
      while (t < nTouched) {
        val v = touched(t)
        val k = count(v)
        if (k >= 2) {
          next(v) = len
          len += k
          sum += k * EntropyOracle.log2(k.toDouble)
        }
        t += 1
      }
      i = start
      while (i < end) {
        val x = in(i)
        val r = x ^ (x >> 31)
        val v = code(r)
        if (count(v) >= 2) { out(next(v)) = r; next(v) += 1 }
        i += 1
      }
      // complement each sub-cluster's last row; reset the counts
      t = 0
      while (t < nTouched) {
        val v = touched(t)
        if (count(v) >= 2) out(next(v) - 1) = ~out(next(v) - 1)
        count(v) = 0
        t += 1
      }
      start = end
    }
    new Pli(java.util.Arrays.copyOf(out, len), sum)
  }
}

private object LocalEntropyOracle {

  /** A stripped partition: row ids grouped by cluster, each cluster's last
    * row complemented, with the cluster sizes' Σ c·log2 c.
    */
  final class Pli(val rows: Array[Int], val sumClog2C: Double)

  /** Open-addressing `Long`→`Double` map with linear probing. Slot key 0
    * marks an empty slot, so the key 0 (∅) is held aside; every other
    * 64-bit key, −1 (all 64 attributes) included, lives in the table.
    * Values must not be NaN: `get` returns NaN for an absent key.
    */
  final class LongDoubleMap {
    private var keys = new Array[Long](1024)
    private var vals = new Array[Double](1024)
    private var shift = 64 - 10
    private var used = 0
    private var zero = Double.NaN

    private def slot(k: Long): Int = ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt

    def get(k: Long): Double =
      if (k == 0L) zero
      else {
        val mask = keys.length - 1
        var i = slot(k)
        while (true) {
          val ki = keys(i)
          if (ki == k) return vals(i)
          if (ki == 0L) return Double.NaN
          i = (i + 1) & mask
        }
        Double.NaN
      }

    def put(k: Long, v: Double): Unit =
      if (k == 0L) zero = v
      else {
        if (2 * (used + 1) > keys.length) grow()
        if (insert(k, v)) used += 1
      }

    /** Sets `k` to `v`; true when `k` was absent. */
    private def insert(k: Long, v: Double): Boolean = {
      val mask = keys.length - 1
      var i = slot(k)
      while (keys(i) != 0L && keys(i) != k) i = (i + 1) & mask
      val added = keys(i) == 0L
      keys(i) = k
      vals(i) = v
      added
    }

    private def grow(): Unit = {
      val (ks, vs) = (keys, vals)
      keys = new Array[Long](ks.length * 2)
      vals = new Array[Double](ks.length * 2)
      shift -= 1
      var i = 0
      while (i < ks.length) {
        if (ks(i) != 0L) insert(ks(i), vs(i))
        i += 1
      }
    }
  }
}
