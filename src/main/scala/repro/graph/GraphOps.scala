package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DataFrame-level operations on edge lists.
  *
  * An edge DataFrame has columns `src: Int, dst: Int` (directed) and, once
  * weighted, `weight: Double`. These transforms are the Catalyst-side graph
  * utilities; each has SQL semantics and is validated against DuckDB in the
  * test suite.
  */
object GraphOps {

  /** Undirected → directed: emit both orientations of every edge, dedup.
    *
    * The paper's convention: "undirected edges in the graph were treated as
    * two directed edges".
    */
  def symmetrize(edges: DataFrame): DataFrame = {
    val fwd = edges.select(col("src"), col("dst"))
    val rev = edges.select(col("dst").as("src"), col("src").as("dst"))
    fwd.union(rev).distinct()
  }

  /** Drop duplicate (src, dst) pairs and self-loops. */
  def canonicalize(edges: DataFrame): DataFrame =
    edges.select("src", "dst").where(col("src") =!= col("dst")).distinct()

  /** In-degree per node appearing as a dst: columns (node, in_degree). */
  def inDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("dst").as("node")).agg(count(lit(1)).as("in_degree"))

  /** Out-degree per node appearing as a src: columns (node, out_degree). */
  def outDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("node")).agg(count(lit(1)).as("out_degree"))

  /** Collect a weighted edge DataFrame to local triples. Ids are read as
    * longs, so an id that does not fit in an Int is rejected, naming the
    * edge, rather than failing on the column type or wrapping.
    */
  def toTriples(edges: DataFrame): Seq[(Int, Int, Double)] = {
    require(edges.columns.contains("weight"), s"edge frame has no weight column: ${edges.columns.mkString(", ")}")
    edges.select(col("src").cast("bigint"), col("dst").cast("bigint"), col("weight").cast("double")).collect().map { r =>
      val (u, v) = (r.getLong(0), r.getLong(1))
      require(u.isValidInt && v.isValidInt, s"edge ($u,$v) has an id outside the Int range")
      (u.toInt, v.toInt, r.getDouble(2))
    }.toSeq
  }
}
