package repro.core.info

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AttrSet, Schema, TestData}

class InfoCalcEdgeSpec extends AnyFunSuite {

  test("jSchema throws on a cyclic schema") {
    val calc = TestData.calcOf(TestData.randomRelation(3, 20, 2, 1))
    val tri = Schema.of(Vector(AttrSet.of(0, 1), AttrSet.of(1, 2), AttrSet.of(0, 2)))
    intercept[IllegalArgumentException] { calc.jSchema(tri) }
  }

  test("jSchema of the universal schema is 0") {
    val calc = TestData.calcOf(TestData.randomRelation(4, 30, 3, 2))
    assert(calc.jSchema(Schema.of(Vector(AttrSet.range(4)))) == 0.0)
  }

  test("J values are never negative even under float cancellation") {
    for (seed <- 0 until 20) {
      val calc = TestData.calcOf(TestData.randomRelation(5, 35, 2, seed))
      val omega = AttrSet.range(5)
      AttrSet.subsetsOf(omega).filter(x => omega.diff(x).size >= 2).foreach { x =>
        val rest = omega.diff(x).toSeq
        val m = repro.core.Mvd.of(x,
          Vector(AttrSet.single(rest.head), AttrSet.fromSeq(rest.tail)))
        assert(calc.jMvd(m) >= 0.0)
      }
    }
  }

  test("H of the full attribute set equals log2 N on duplicate-free data") {
    val rel = TestData.structuredRelation(64, 3)
    val calc = TestData.calcOf(rel)
    val distinct = (0 until rel.size).map(r => rel.cols.map(_(r)).toSeq).distinct.length
    if (distinct == rel.size) {
      assert(math.abs(calc.H(AttrSet.range(4)) - EntropyLog.log2(rel.size)) < 1e-9)
    } else {
      assert(calc.H(AttrSet.range(4)) <= EntropyLog.log2(rel.size) + 1e-9)
    }
  }

  private object EntropyLog {
    def log2(x: Int): Double = math.log(x.toDouble) / math.log(2.0)
  }
}
