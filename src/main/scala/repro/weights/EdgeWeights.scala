package repro.weights

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{Generators, GraphOps}

/** Edge-weight models (EWM) from the paper's benchmarks, as DataFrame
  * transforms over a directed edge list `(src, dst)`.
  *
  *  - TV (trivalency, Goyal et al.): weight drawn uniformly from
  *    {0.1, 0.01, 0.001} per directed edge.
  *  - UR (uniformly random): weight uniform in [0, 1) per directed edge.
  *  - WC (weighted cascade, Kempe et al.): weight of every edge entering v
  *    is 1 / in-degree(v).
  *
  * TV/UR draws are counter-based (`xxhash64` of the edge identity and the
  * seed), so weights are deterministic regardless of partitioning, and the
  * two orientations of an undirected edge draw *independent* weights — the
  * paper's convention of treating them as two directed edges.
  */
object EdgeWeights {

  /** Names of the three models, in the paper's row order. */
  val All: Seq[String] = Seq("TV", "UR", "WC")

  /** Trivalency: weight uniformly from {0.1, 0.01, 0.001}. */
  def trivalency(edges: DataFrame, seed: Long): DataFrame = {
    val idx = (Generators.unitHash(lit("tv"), col("src"), col("dst"), lit(seed)) * 3).cast("int")
    edges.select(
      col("src"),
      col("dst"),
      element_at(array(lit(0.1), lit(0.01), lit(0.001)), least(idx, lit(2)) + 1).as("weight"),
    )
  }

  /** Uniformly random: weight uniform in [0, 1). */
  def uniformRandom(edges: DataFrame, seed: Long): DataFrame =
    edges.select(
      col("src"),
      col("dst"),
      Generators.unitHash(lit("ur"), col("src"), col("dst"), lit(seed)).as("weight"),
    )

  /** Weighted cascade: weight(u→v) = 1 / in-degree(v). Pure SQL (groupBy +
    * join), oracle-checked; no seed — WC is deterministic in the graph.
    */
  def weightedCascade(edges: DataFrame): DataFrame = {
    val indeg = GraphOps.inDegrees(edges)
    edges
      .join(indeg, edges("dst") === indeg("node"))
      .select(col("src"), col("dst"), (lit(1.0) / col("in_degree")).as("weight"))
  }

  /** Apply a model by name ("TV" | "UR" | "WC") to a directed edge list. */
  def apply(name: String, edges: DataFrame, seed: Long): DataFrame = name match {
    case "TV" => trivalency(edges, seed)
    case "UR" => uniformRandom(edges, seed)
    case "WC" => weightedCascade(edges)
    case other => throw new IllegalArgumentException(s"unknown edge-weight model: $other")
  }

  /** Rescale weights so every node's incoming weights sum to at most 1 — the
    * LT model's feasibility condition. Weights into v are divided by
    * max(1, Σ_u w(u,v)); WC input is a fixed point of this transform.
    */
  def normalizeForLT(weighted: DataFrame): DataFrame = {
    val sums = weighted
      .groupBy(col("dst").as("node"))
      .agg(sum(col("weight")).as("in_sum"))
    weighted
      .join(sums, weighted("dst") === sums("node"))
      .select(
        col("src"),
        col("dst"),
        (col("weight") / greatest(lit(1.0), col("in_sum"))).as("weight"),
      )
  }
}
