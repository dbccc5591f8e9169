package org.apache.spark

/** Spark's listener bus is asynchronous and package-private; the benchmark
  * waits for it to drain before it reads the job count.
  */
object PerfbenchAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
