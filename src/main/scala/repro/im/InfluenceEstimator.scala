package repro.im

import org.apache.spark.sql.SparkSession
import repro.baselines.{BoxedFrontier, FullScan}
import repro.core.{CsrGraph, IndependentCascade, LinearThreshold, Model, Simulator}
import repro.spark.MonteCarlo

/** Monte-Carlo influence function σ̂(S) with a pluggable simulation backend —
  * the "CELF with different backends" axis of the paper's Table 2.
  *
  * Every backend evaluates the *same* fixed set of live-edge/threshold
  * worlds (trials 0 until `trials` with the shared counter-based RNG), so:
  *   - all backends return bit-identical σ̂ for the same S (tested), and
  *   - for IC, σ̂ is an average of per-world reachability coverages, hence
  *     monotone submodular, making lazy (CELF) and full greedy provably
  *     pick identical seed sets.
  */
trait InfluenceEstimator {
  /** Backend name as it appears in benchmark output. */
  def name: String

  /** Estimated expected number of activated nodes for seed set `seeds`. */
  def sigma(seeds: Seq[Int]): Double
}

/** σ̂ via the CSR frontier engine (the CyNetDiff analog). Uses the
  * reusable-state simulators so per-evaluation cost is proportional to the
  * touched edges, not to graph size — the property Table 2 measures.
  */
final class CsrEstimator(g: CsrGraph, trials: Int, seed: Long, model: Model = IndependentCascade)
    extends InfluenceEstimator {
  require(trials > 0, "trials must be positive")
  private val sim = model.simulator(g, seed)
  val name: String = "csr"
  def sigma(seeds: Seq[Int]): Double = sim.meanInfluence(seeds.toArray, trials)
}

/** σ̂ as the mean activated count over trials [0, trials) — the one trial
  * loop of the two baseline estimators. Each picks its per-trial `count`
  * for its model once, when it is built. Throws if a seed lies outside
  * [0, n).
  */
sealed abstract class TrialMeanEstimator(n: Int, trials: Int) extends InfluenceEstimator {
  require(trials > 0, "trials must be positive")

  protected val count: TrialMeanEstimator.Count

  final def sigma(seeds: Seq[Int]): Double = {
    Simulator.requireSeeds(n, seeds)
    var sum = 0L
    var t = 0
    while (t < trials) { sum += count(seeds, t.toLong); t += 1 }
    sum.toDouble / trials
  }
}

object TrialMeanEstimator {

  /** Activated count of one trial for a seed set; a SAM type rather than a
    * `Function2`, so the trial index and the count are not boxed per trial.
    */
  trait Count { def apply(seeds: Seq[Int], trial: Long): Int }
}

/** σ̂ via the boxed-frontier baseline (the pure-Python analog). */
final class BoxedEstimator(n: Int, triples: Seq[(Int, Int, Double)], trials: Int, seed: Long, model: Model = IndependentCascade)
    extends TrialMeanEstimator(n, trials) {
  val name: String = "boxed"
  protected val count: TrialMeanEstimator.Count = {
    val adj = BoxedFrontier.buildAdjacency(triples)
    model match {
      case IndependentCascade => BoxedFrontier.activatedCountIC(adj, _, _, seed)
      case LinearThreshold => BoxedFrontier.activatedCountLT(adj, _, _, seed)
    }
  }
}

/** σ̂ via the full-scan baseline (the NDlib analog) — the backend the paper
  * reports as not finishing CELF within its time budget.
  */
final class FullScanEstimator(n: Int, triples: Seq[(Int, Int, Double)], trials: Int, seed: Long, model: Model = IndependentCascade)
    extends TrialMeanEstimator(n, trials) {
  val name: String = "fullscan"
  protected val count: TrialMeanEstimator.Count = {
    val adj = FullScan.buildAdjacency(triples)
    model match {
      case IndependentCascade => FullScan.activatedCountIC(n, adj, _, _, seed)
      case LinearThreshold => FullScan.activatedCountLT(n, adj, _, _, seed)
    }
  }
}

/** σ̂ with trials fanned out over the Spark cluster — same worlds, same
  * value, different execution substrate (see [[repro.spark.MonteCarlo]]).
  */
final class SparkEstimator(spark: SparkSession, g: CsrGraph, trials: Int, seed: Long, model: Model = IndependentCascade)
    extends InfluenceEstimator {
  require(trials > 0, "trials must be positive")
  val name: String = "spark"
  def sigma(seeds: Seq[Int]): Double = MonteCarlo.influence(spark, g, seeds.toArray, trials, seed, model)
}
