package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Shared session bootstrap for the spark-submit entrypoint. */
object JobSession {
  def make(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def argInt(args: Array[String], i: Int, default: Int): Int =
    if (args.length > i) args(i).toInt else default

  def argLong(args: Array[String], i: Int, default: Long): Long =
    if (args.length > i) args(i).toLong else default
}

/** One paper exhibit per run: `Jobs <exhibit> [arg0] [arg1]`, printing the
  * exhibit's table. The two optional arguments of each exhibit, and their
  * defaults, are listed in [[exhibits]].
  */
object Jobs {
  import JobSession.{argInt, argLong}
  import Experiments._

  /** Exhibit name → the table it prints from a session and its arguments. */
  val exhibits: ListMap[String, (SparkSession, Array[String]) => String] = ListMap(
    // Table 2: [rowCap] [perDatasetMs]
    "table2" -> ((spark, a) => formatTable2(table2(spark,
      rowCap = argInt(a, 0, 20000), perDatasetMs = argLong(a, 1, 120000L)))),
    // Fig. 10/11: [maxScored] [mineMsPerEps]
    "nursery" -> ((spark, a) => formatSchemes(nurseryUseCase(spark,
      maxScored = argInt(a, 0, 40), mineMsPerEps = argLong(a, 1, 120000L)))),
    // Fig. 12: [rowCap] [mineMsPerEps]
    "accuracy" -> ((spark, a) => formatAccuracy(accuracy(spark,
      rowCap = argInt(a, 0, 5000), mineMsPerEps = argLong(a, 1, 60000L)))),
    // Fig. 13: [baseRows] [perPointMs]
    "rowscale" -> ((spark, a) => formatScale(rowScalability(spark,
      baseRows = argInt(a, 0, 40000), perPointMs = argLong(a, 1, 60000L)))),
    // Fig. 14: [rowCap] [perPointMs]
    "colscale" -> ((spark, a) => formatScale(colScalability(spark,
      rowCap = argInt(a, 0, 5000), perPointMs = argLong(a, 1, 30000L)))),
    // Fig. 15: [rowCap] [perEpsMs]
    "quality" -> ((spark, a) => formatQuality(quality(spark,
      rowCap = argInt(a, 0, 5000), perEpsMs = argLong(a, 1, 60000L)))),
    // Fig. 18: [rowCap] [perPointMs]
    "fullmvd" -> ((spark, a) => formatFullMvd(fullMvdCounts(spark,
      rowCap = argInt(a, 0, 5000), perPointMs = argLong(a, 1, 60000L)))),
  )

  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    // checked before the (slow) Spark start-up
    val run = exhibits.getOrElse(name, throw new IllegalArgumentException(
      s"unknown exhibit '$name'; expected one of: ${exhibits.keys.mkString(", ")}"))
    val spark = JobSession.make(name)
    try println(run(spark, args.drop(1)))
    finally spark.stop()
  }
}
