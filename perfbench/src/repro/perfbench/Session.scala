package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Path
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import org.apache.spark.PerfbenchAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** The one Spark session of a benchmark process: `local[4]`, with the same
  * SQL settings as the `jobs/` entrypoints, and every scratch directory
  * inside the build directory.
  */
final class Session(outDir: Path) {
  private val started = new AtomicLong

  val spark: SparkSession = SparkSession.builder()
    .master("local[4]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .config("spark.local.dir", outDir.resolve("spark-local").toString)
    .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toString)
    .getOrCreate()

  spark.sparkContext.addSparkListener(new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
  })

  /** Spark jobs started so far, after the listener has seen every event. */
  def jobsStarted(): Long = {
    PerfbenchAccess.drainListenerBus(spark.sparkContext)
    started.get()
  }

  def stop(): Unit = spark.stop()
}

object Heap {
  /** Heap in use after full collections, in MiB. */
  def settledMb(): Double = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Milliseconds spent in garbage collection since the JVM started. */
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
}
