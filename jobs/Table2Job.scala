package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Table2

/** spark-submit entrypoint reproducing paper Table 2 (CELF with 10 seeds on
  * a random 7-regular graph; CSR vs boxed-frontier backends, full-scan
  * backend reported DNF past its budget).
  *
  * Usage: spark-submit --class repro.jobs.Table2Job <jar>
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("table2")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val cells = Table2.run(spark)
      println("=== Table 2 (CELF, 10 seeds, random 7-regular n=5000) ===")
      println(Table2.render(cells))
    } finally spark.stop()
  }
}
