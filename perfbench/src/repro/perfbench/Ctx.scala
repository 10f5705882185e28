package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.CsrGraph
import repro.graph.GraphOps
import repro.weights.EdgeWeights

/** What every workload shares: the Spark session, the tracer, and the seeds
  * derived from the workload seed argument. The library receives only inputs
  * generated from these seeds.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val traced: Boolean, val seed: Long, val cores: Int) {
  val genSeed: Long = Ctx.derive(seed, 1)
  val weightSeed: Long = Ctx.derive(seed, 2)
  val rngSeed: Long = Ctx.derive(seed, 3)
  val pickSeed: Long = Ctx.derive(seed, 4)

  /** `count` distinct node ids in [0, n): those with the smallest hash. */
  def pick(n: Int, count: Int, salt: Long): Array[Int] =
    (0 until n).sortBy(v => Ctx.derive(pickSeed ^ salt, v.toLong)).take(count).toArray

  /** `count` node ids, one drawn uniformly from each of `count` equal id
    * ranges. The generators give low ids the high degrees, so every such set
    * spans the degree range alike; a plain uniform draw makes cascade sizes
    * swing with the number of hubs it happens to catch.
    */
  def stratified(n: Int, count: Int, salt: Long): Array[Int] =
    Array.tabulate(count) { i =>
      val lo = (i.toLong * n / count).toInt
      val hi = ((i + 1).toLong * n / count).toInt
      lo + java.lang.Math.floorMod(Ctx.derive(pickSeed ^ salt, i.toLong), (hi - lo).toLong).toInt
    }

  private val held = scala.collection.mutable.ArrayBuffer.empty[DataFrame]

  /** Persist `df` until the next [[release]]. */
  def keep(df: DataFrame): DataFrame = { held += df; df.persist() }

  /** In the traced run, materialise `df` so its cost lands in the open span. */
  def force(df: DataFrame): DataFrame = {
    if (traced) { keep(df); df.count() }
    df
  }

  /** Unpersist everything a previous set-up repetition kept. */
  def release(): Unit = { held.foreach(_.unpersist(blocking = true)); held.clear() }

  /** Weight, collect and build one CSR graph, each stage in its own span. */
  def weightedCsr(n: Int, label: String, weighted: => DataFrame): CsrGraph = {
    val triples = tracer.span(s"weights.weight_collect.$label")(GraphOps.toTriples(weighted))
    tracer.span("core.csr_build")(CsrGraph.fromTriples(n, triples))
  }

  def csrFor(n: Int, ewm: String, edges: DataFrame): CsrGraph =
    weightedCsr(n, ewm, EdgeWeights(ewm, edges, weightSeed))
}

object Ctx {
  /** splitmix64 of (seed, tag): independent streams from one seed. */
  def derive(seed: Long, tag: Long): Long = {
    var z = seed * 0x9e3779b97f4a7c15L + tag + 0x632be59bd9b4e019L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
