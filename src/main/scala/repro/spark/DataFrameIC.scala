package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Rng

/** Independent cascade executed *inside* Catalyst: the diffusion frontier is
  * a DataFrame and each time step is a join against the weighted edge list.
  *
  * This is the "write the simulator in the high-level engine" datapoint —
  * the Spark-level moral equivalent of the paper's pure-Python baseline —
  * and a correctness cross-check: the coin RNG is the same counter-based
  * function the CSR engine uses (registered as a UDF), so for the same
  * (edges, seeds, trial, seed) the activated sets are bit-identical, even
  * though one runs as compiled array code and the other as a sequence of
  * distributed joins.
  */
object DataFrameIC {

  /** Run one IC trial as iterative DataFrame joins.
    *
    * @param edges weighted directed edges (src, dst, weight)
    * @param seeds seed node ids
    * @param trial live-edge world index
    * @param seed  experiment RNG seed
    * @return DataFrame (node, step) with one row per activated node
    */
  def simulate(
      spark: SparkSession,
      edges: DataFrame,
      seeds: Seq[Int],
      trial: Long,
      seed: Long,
  ): DataFrame = {
    import spark.implicits._
    val coin = udf((u: Int, v: Int) => Rng.coin(seed, trial, u, v))
    val e = edges.selectExpr("cast(src as int) src", "cast(dst as int) dst", "cast(weight as double) weight")
      .persist()
    var active = seeds.distinct.map((_, 0)).toDF("node", "step").localCheckpoint()
    var frontier = active
    var t = 0
    var frontierSize = frontier.count()
    while (frontierSize > 0) {
      t += 1
      val step = t // stable copy for the closure
      val next = frontier
        .join(e, frontier("node") === e("src"))
        .where(coin(col("src"), col("dst")) < col("weight"))
        .select(col("dst").as("node"))
        .distinct()
        .join(active, Seq("node"), "left_anti")
        .select(col("node"), lit(step).as("step"))
        // localCheckpoint truncates the lineage that iterative unions grow.
        .localCheckpoint()
      frontierSize = next.count()
      if (frontierSize > 0) active = active.union(next).localCheckpoint()
      frontier = next
    }
    e.unpersist()
    active
  }
}
