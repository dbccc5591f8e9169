package repro.perfbench

import scala.collection.mutable
import repro.core.AttrSet
import repro.core.entropy.EntropyOracle

/** A span: one call into a layer, with the oracle traffic it caused.
  * Times are nanoseconds from the tracer's epoch.
  */
final class Span(val id: Int, val parent: Int, val run: String, val name: String, val start: Long) {
  var end: Long = start
  var callsAtStart, callsAtEnd, missesAtStart, missesAtEnd, jobsAtStart, jobsAtEnd = 0L
  /** Time of the oracle misses inside this span (pipeline spans only). */
  var computeNs = 0L

  def durNs: Long = end - start
  def calls: Long = callsAtEnd - callsAtStart
  def misses: Long = missesAtEnd - missesAtStart
  def jobs: Long = jobsAtEnd - jobsAtStart
}

/** Records spans in memory around the calls into each layer; nested calls
  * become children of the innermost open span. `counters` reports the
  * current oracle's calls and computations and the Spark jobs started, at
  * each span boundary.
  */
final class Tracer extends Phases {
  private val epoch = System.nanoTime()
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[Span] = Nil
  var run: String = ""
  var counters: () => (Long, Long, Long) = () => (0L, 0L, 0L)

  def apply[A](name: String)(body: => A): A = {
    val s = new Span(spans.size, open.headOption.fold(-1)(_.id), run, name, System.nanoTime() - epoch)
    val (c0, m0, j0) = counters()
    s.callsAtStart = c0; s.missesAtStart = m0; s.jobsAtStart = j0
    spans += s
    open ::= s
    try body
    finally {
      s.end = System.nanoTime() - epoch
      val (c1, m1, j1) = counters()
      s.callsAtEnd = c1; s.missesAtEnd = m1; s.jobsAtEnd = j1
      open = open.tail
    }
  }

  def find(run: String, name: String): Span =
    spans.find(s => s.run == run && s.name == name).getOrElse(
      throw new NoSuchElementException(s"no span $name in $run"))

  def toJson: String = spans.map { s =>
    s"""{"run":"${s.run}","id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
    s""""start_ns":${s.start},"end_ns":${s.end},"oracle_calls":${s.calls},""" +
    s""""oracle_computations":${s.misses},"oracle_compute_ns":${s.computeNs},"spark_jobs":${s.jobs}}"""
  }.mkString("[\n", ",\n", "\n]\n")
}

/** A delegating oracle that keeps its own cost small at 10^8 calls. It
  * counts calls and mirrors the memo's keys in an unboxed map, so it knows
  * before a call whether the call is a miss; it times every miss, in order,
  * and one hit in 1024.
  */
final class RecordingOracle(inner: EntropyOracle) extends EntropyOracle {
  require(inner.computations == 0L, "the inner oracle must be fresh")
  private val seen = mutable.LongMap.empty[Unit]
  private var nCalls = 0L
  private val missTimes = mutable.ArrayBuilder.make[Long]
  private var nMisses = 0L
  private val hitSamples = mutable.ArrayBuilder.make[Long]

  def nAttrs: Int = inner.nAttrs
  def nRows: Long = inner.nRows
  def calls: Long = nCalls
  def computations: Long = nMisses

  /** Wall time of each miss, in call order. */
  def missNs: Array[Long] = {
    require(inner.computations == nMisses, "the memo and its mirror disagree")
    missTimes.result()
  }

  /** Median sampled hit time, less the cost of reading the clock: the
    * median keeps GC pauses and interpreted warm-up calls out.
    */
  def hitNs: Double = {
    val s = hitSamples.result().sorted
    if (s.isEmpty) 0.0 else math.max(0.0, s(s.length / 2) - RecordingOracle.clockNs)
  }

  def entropy(x: AttrSet): Double = {
    nCalls += 1
    if (!seen.contains(x.bits)) {
      seen(x.bits) = ()
      nMisses += 1
      val t0 = System.nanoTime()
      val h = inner.entropy(x)
      missTimes += System.nanoTime() - t0
      h
    } else if ((nCalls & 1023L) != 0L) inner.entropy(x)
    else {
      val t0 = System.nanoTime()
      val h = inner.entropy(x)
      hitSamples += System.nanoTime() - t0
      h
    }
  }
}

object RecordingOracle {
  /** Mean cost of reading the clock twice. */
  def clockNs: Double = {
    val n = 200000
    var sum = 0L
    var i = 0
    while (i < n) {
      val t0 = System.nanoTime()
      sum += System.nanoTime() - t0
      i += 1
    }
    sum.toDouble / n
  }
}
