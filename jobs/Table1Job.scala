package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Table1

/** spark-submit entrypoint reproducing paper Table 1 (IC runtimes, 100
  * seeds, 3 graphs × 3 edge-weight models × 3 implementations).
  *
  * Usage: spark-submit --class repro.jobs.Table1Job <jar>
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("table1")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val rows = Table1.run(spark)
      println("=== Table 1 (normalized, fastest = 1) ===")
      println(Table1.render(rows))
      println()
      println("=== Table 1 (raw per-trial ms) ===")
      println(Table1.renderRaw(rows))
    } finally spark.stop()
  }
}
