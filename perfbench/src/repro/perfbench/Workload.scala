package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import repro.core.CsrGraph

/** The CELF call a workload's traced run measures layer by layer, and that the
  * baseline rungs rerun: σ̂ over `trials` worlds of `graph`.
  */
final case class CelfSpec(graph: CsrGraph, candidates: IndexedSeq[Int], k: Int, trials: Int)

/** One benchmark workload: a set-up that can be repeated, a timed operation
  * run in a closed loop, and checks made outside the timed region.
  */
abstract class Workload(val ctx: Ctx) {
  /** One set-up repetition: generate, symmetrise, weight, collect, build the
    * CSR graphs and warm the JIT. Replaces the state of the previous one.
    */
  def setUp(): Unit

  /** One timed operation. Keeps its outputs for [[checkLast]]. */
  def op(): Unit

  /** Whether the outputs of the operation just run are correct. */
  def checkLast(): Boolean

  /** Checks against reference implementations, made once after the loop. */
  def finalChecks(): Seq[(String, Boolean)]

  /** The user-visible timings of the loop, by the names the issue gives them. */
  def userMetrics: Seq[Reported]

  /** Every CSR graph the set-up built and the loop reads. */
  def csrGraphs: Seq[CsrGraph]

  /** Graph, LT-feasible graph and seed set the layer probes run on. */
  def primary: CsrGraph
  def ltGraph: CsrGraph
  def probeSeeds: Array[Int]

  /** The CELF call the im layer and the baseline ladder are measured on. */
  def celf: CelfSpec

  /** Whether [[op]] already runs [[celf]]; if not, the traced run adds it. */
  def opRunsCelf: Boolean

  /** Run `f` in a span named `spanName` and append its duration, in seconds
    * times `perSecond` (1e3 for ms), to `into`.
    */
  protected def timed[A](into: ArrayBuffer[Double], spanName: String, perSecond: Double)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = ctx.tracer.span(spanName)(f)
    into += (System.nanoTime() - t0) * perSecond / 1e9
    a
  }
}

object Workload {
  val Names: Seq[String] = Seq("celf-regular", "mc-facebook", "spark-fanout")

  def apply(name: String, ctx: Ctx): Workload = name match {
    case "celf-regular" => new CelfRegular(ctx)
    case "mc-facebook" => new McFacebook(ctx)
    case "spark-fanout" => new SparkFanout(ctx)
    case other => throw new IllegalArgumentException(s"unknown workload '$other'; known: ${Names.mkString(", ")}")
  }
}
