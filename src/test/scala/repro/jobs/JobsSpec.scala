package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The spark-submit entrypoint shares the experiment harness with the bench
  * suites (exercised there); here we pin the dispatch and argument plumbing.
  */
class JobsSpec extends AnyFunSuite {

  test("argInt falls back to the default") {
    assert(JobSession.argInt(Array.empty, 0, 42) == 42)
    assert(JobSession.argInt(Array("7"), 1, 42) == 42)
  }

  test("argInt parses a provided value") {
    assert(JobSession.argInt(Array("7"), 0, 42) == 7)
    assert(JobSession.argInt(Array("7", "9"), 1, 42) == 9)
  }

  test("argLong parses and falls back") {
    assert(JobSession.argLong(Array("120000"), 0, 1L) == 120000L)
    assert(JobSession.argLong(Array.empty, 0, 5L) == 5L)
  }

  test("the dispatcher knows exactly the seven exhibits") {
    assert(Jobs.exhibits.keySet ==
      Set("table2", "nursery", "accuracy", "rowscale", "colscale", "quality", "fullmvd"))
  }

  test("an unknown or missing exhibit name fails with a message listing the known ones") {
    for (args <- Seq(Array("table3"), Array.empty[String])) {
      val e = intercept[IllegalArgumentException](Jobs.main(args))
      Jobs.exhibits.keys.foreach(name => assert(e.getMessage.contains(name)))
    }
  }
}
