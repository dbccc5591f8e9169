package repro.perfbench

import scala.util.Random
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{MetanomeLite, NurseryData, PlantedData}

/** The benchmark's workloads. Each one loads a different layer of the
  * pipeline; see `perfbench/README.md` for why each exists. `passes` is the
  * fewest passes a measured run makes: two where a single-threaded mining
  * pass of 10–20 s swings by a fifth with other load on a shared machine.
  *
  * A planted analog is generated with a data seed, by default
  * `dataset.hashCode` as in `MetanomeLite.load`; Nursery is a fixed
  * Cartesian product. The benchmark seed then permutes the rows (seed 0
  * keeps the generated order). A row order changes neither the entropies
  * nor anything mined from them, so every benchmark seed does the same
  * mining work and must give the same output.
  */
final case class Workload(
    name: String,
    eps: Double,
    scoresQuality: Boolean,
    enumerationCapped: Boolean,
    dataset: String,
    rows: Int,
    passes: Int,
) {
  /** The data seed of `MetanomeLite.load`; None when the data has no seed. */
  def defaultDataSeed: Option[Long] = if (dataset == "nursery") None else Some(dataset.hashCode.toLong)

  def load(spark: SparkSession, dataSeed: Option[Long], rowSeed: Long): DataFrame = {
    val df = dataSeed match {
      case Some(seed) => PlantedData.generate(spark, MetanomeLite.entry(dataset).spec, rows, seed)
      case None       => NurseryData.load(spark)
    }
    if (rowSeed == 0L) df
    else {
      val shuffled = new Random(rowSeed).shuffle(df.collect().toVector)
      spark.createDataFrame(spark.sparkContext.parallelize(shuffled, df.rdd.getNumPartitions), df.schema)
    }
  }
}

object Workloads {
  val all: Vector[Workload] = Vector(
    Workload("image-rows", eps = 0.0, scoresQuality = false, enumerationCapped = false,
             dataset = "image", rows = 40000, passes = 2),
    Workload("echo-search", eps = 0.03, scoresQuality = false, enumerationCapped = true,
             dataset = "echocardiogram", rows = 132, passes = 2),
    Workload("nursery-quality", eps = 0.1, scoresQuality = true, enumerationCapped = false,
             dataset = "nursery", rows = NurseryData.nRows.toInt, passes = 1),
  )

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
