package repro.core.entropy

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, PropSupport, TestData}

/** Reference (naive) entropy for cross-checking the PLI oracle. */
object NaiveEntropy {
  def entropy(rel: EncodedRelation, x: AttrSet): Double = {
    if (x.isEmpty || rel.size == 0) return 0.0
    val idx = x.toSeq
    val counts = (0 until rel.size).groupBy(r => idx.map(rel.cols(_)(r))).values.map(_.length)
    val n = rel.size.toDouble
    counts.map { c => val p = c / n; -p * (math.log(p) / math.log(2.0)) }.sum
  }
}

class LocalEntropySpec extends AnyFunSuite with PropSupport {

  test("entropy of empty attribute set is 0") {
    val rel = TestData.randomRelation(3, 50, 4, seed = 1)
    assert(TestData.calcOf(rel).H(AttrSet.empty) == 0.0)
  }

  test("entropy of a constant column is 0") {
    val rel = TestData.fromRows(Vector("A"), Array.fill(16)(Array(0)))
    val o = new LocalEntropyOracle(rel)
    assert(o.entropy(AttrSet.of(0)) == 0.0)
  }

  test("entropy of an all-distinct column is log2 N") {
    val rel = TestData.fromRows(Vector("A"), Array.tabulate(16)(i => Array(i)))
    val o = new LocalEntropyOracle(rel)
    assert(math.abs(o.entropy(AttrSet.of(0)) - 4.0) < 1e-12)
  }

  test("uniform two-value column has entropy 1") {
    val rel = TestData.fromRows(Vector("A"), Array.tabulate(10)(i => Array(i % 2)))
    val o = new LocalEntropyOracle(rel)
    assert(math.abs(o.entropy(AttrSet.of(0)) - 1.0) < 1e-12)
  }

  test("paper Example 3.4: H(BDE)=3/2 and H(ABCDEF)=2 on the running example") {
    val rel = repro.data.RunningExample.cleanEncoded
    val o = new LocalEntropyOracle(rel)
    import repro.data.RunningExample._
    assert(math.abs(o.entropy(AttrSet.of(B, D, E)) - 1.5) < 1e-12)
    assert(math.abs(o.entropy(AttrSet.range(6)) - 2.0) < 1e-12)
  }

  test("matches the naive entropy on random relations") {
    val rnd = new Random(42)
    for (trial <- 0 until 30) {
      val rel = TestData.randomRelation(4, 20 + rnd.nextInt(60), 3, seed = trial)
      val o = new LocalEntropyOracle(rel)
      AttrSet.subsetsOf(AttrSet.range(4)).foreach { x =>
        val got = o.entropy(x)
        val exp = NaiveEntropy.entropy(rel, x)
        assert(math.abs(got - exp) < 1e-9, s"trial=$trial x=$x got=$got exp=$exp")
      }
    }
  }

  test("monotonicity: H(XY) >= H(X)") {
    val rel = TestData.randomRelation(5, 80, 3, seed = 7)
    val o = new LocalEntropyOracle(rel)
    val omega = AttrSet.range(5)
    AttrSet.subsetsOf(omega).foreach { x =>
      AttrSet.subsetsOf(omega.diff(x)).foreach { y =>
        assert(o.entropy(x | y) >= o.entropy(x) - 1e-9)
      }
    }
  }

  test("submodularity: H(X)+H(Y) >= H(X∪Y)+H(X∩Y)") {
    val rel = TestData.randomRelation(4, 60, 3, seed = 8)
    val o = new LocalEntropyOracle(rel)
    val omega = AttrSet.range(4)
    for {
      x <- AttrSet.subsetsOf(omega).toVector
      y <- AttrSet.subsetsOf(omega).toVector
    } assert(o.entropy(x) + o.entropy(y) >= o.entropy(x | y) + o.entropy(x & y) - 1e-9)
  }

  test("H(Omega) = log2 N when all rows are distinct") {
    val rel = TestData.fromRows(Vector("A", "B"), Array.tabulate(8)(i => Array(i / 2, i % 4)))
    // rows: (0,0),(0,1),(1,2),(1,3),(2,0),(2,1),(3,2),(3,3) — all distinct
    val o = new LocalEntropyOracle(rel)
    assert(math.abs(o.entropy(AttrSet.range(2)) - 3.0) < 1e-12)
  }

  test("memoization: repeated queries do not recompute") {
    val rel = TestData.randomRelation(3, 40, 3, seed = 9)
    val o = new LocalEntropyOracle(rel)
    o.entropy(AttrSet.of(0, 1))
    val comps = o.computations
    o.entropy(AttrSet.of(0, 1))
    o.entropy(AttrSet.of(0, 1))
    assert(o.computations == comps)
    assert(o.calls >= 3)
  }

  test("tiny partition cache still yields correct entropies") {
    val rel = TestData.randomRelation(5, 60, 3, seed = 10)
    val small = new LocalEntropyOracle(rel, partitionCacheCap = 1)
    val big = new LocalEntropyOracle(rel)
    AttrSet.subsetsOf(AttrSet.range(5)).foreach { x =>
      assert(math.abs(small.entropy(x) - big.entropy(x)) < 1e-12)
    }
  }

  test("fromTuples encodes value equality per column") {
    val rel = EncodedRelation.fromTuples(Vector("A", "B"),
      Seq(Seq("x", 1), Seq("x", 2), Seq("y", 1)))
    assert(rel.size == 3)
    assert(rel.cols(0)(0) == rel.cols(0)(1)) // same "x"
    assert(rel.cols(0)(0) != rel.cols(0)(2))
    assert(rel.cols(1)(0) == rel.cols(1)(2)) // same 1
  }

  test("64 columns: H(Ω), H({63}) and H(∅) match the naive entropy (memo keys -1 and 0)") {
    val rel = TestData.randomRelation(64, 40, 2, seed = 11)
    val o = new LocalEntropyOracle(rel)
    for (_ <- 0 until 2; x <- Seq(AttrSet.empty, AttrSet.range(64), AttrSet.single(63))) {
      val exp = NaiveEntropy.entropy(rel, x)
      assert(math.abs(o.entropy(x) - exp) < 1e-9, s"x=$x")
    }
    assert(o.computations == 3)
  }

  test("more than 64 columns is rejected when encoding") {
    val names = Vector.tabulate(65)(i => s"c$i")
    val e = intercept[IllegalArgumentException] {
      EncodedRelation.fromTuples(names, Seq(Seq.fill(65)(0)))
    }
    assert(e.getMessage.contains("65 columns") && e.getMessage.contains("64"))
  }

  test("0 rows and 1 row: every entropy is 0") {
    for (nRows <- Seq(0, 1)) {
      val rel = TestData.randomRelation(3, nRows, 3, seed = 12)
      val o = new LocalEntropyOracle(rel)
      AttrSet.subsetsOf(AttrSet.range(3)).foreach { x =>
        assert(o.entropy(x) == 0.0 && NaiveEntropy.entropy(rel, x) == 0.0, s"nRows=$nRows x=$x")
      }
    }
  }

  test("property: skewed relations, every subset in shuffled order, any cache size") {
    // Columns: three skewed domains, a constant, an all-distinct column and
    // one whose only repeat is a single pair. A shuffled order makes
    // partitions refine from cached subsets, across cluster boundaries.
    val gen = for {
      nRows <- Gen.choose(500, 3000)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (nRows, seed)
    checkProp(Prop.forAll(gen) { case (nRows, seed) =>
      val rnd = new Random(seed)
      def skewed(d: Int) = (math.pow(rnd.nextDouble(), 3) * d).toInt
      val rows = Array.tabulate(nRows) { r =>
        Array(skewed(4), skewed(30), 0, r, if (r == nRows - 1) 0 else r, skewed(200))
      }
      val rel = TestData.fromRows(Vector.tabulate(6)(i => s"c$i"), rows)
      val subsets = AttrSet.subsetsOf(AttrSet.range(6)).toVector
      val exp = subsets.map(x => x -> NaiveEntropy.entropy(rel, x)).toMap
      Seq(1, 2, 256).forall { cap =>
        val o = new LocalEntropyOracle(rel, partitionCacheCap = cap)
        rnd.shuffle(subsets).forall(x => math.abs(o.entropy(x) - exp(x)) < 1e-9)
      }
    }, minTests = 8)
  }
}
