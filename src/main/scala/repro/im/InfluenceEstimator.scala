package repro.im

import org.apache.spark.sql.SparkSession
import repro.baselines.{BoxedFrontier, FullScan}
import repro.core.{CsrGraph, IndependentCascade, LinearThreshold, Model, Simulator}
import repro.spark.MonteCarlo

/** Monte-Carlo influence function σ̂(S) with a pluggable simulation backend —
  * the "CELF with different backends" axis of the paper's Table 2.
  *
  * Every backend evaluates the *same* fixed set of live-edge/threshold
  * worlds (trials 0 until `trials` with the shared counter-based RNG) and
  * counts their activations exactly in [[total]], so:
  *   - all backends return the same total, hence bit-identical σ̂, for the
  *     same S (tested), and
  *   - for IC, the total is a sum of per-world reachability coverages, hence
  *     monotone submodular, making lazy (CELF) and full greedy over its exact
  *     integer gains provably pick identical seed sets.
  */
abstract class InfluenceEstimator(val trials: Int) {
  require(trials > 0, "trials must be positive")

  /** Backend name as it appears in benchmark output. */
  def name: String

  /** Activated count for seed set `seeds`, summed over trials [0, trials). */
  def total(seeds: Seq[Int]): Long

  /** Estimated expected number of activated nodes for seed set `seeds`. */
  final def sigma(seeds: Seq[Int]): Double = total(seeds).toDouble / trials
}

/** σ̂ via the CSR frontier engine (the CyNetDiff analog). Uses the
  * reusable-state simulators so per-evaluation cost is proportional to the
  * touched edges, not to graph size — the property Table 2 measures.
  */
final class CsrEstimator(g: CsrGraph, trials: Int, seed: Long, model: Model = IndependentCascade)
    extends InfluenceEstimator(trials) {
  private val sim = model.simulator(g, seed)
  val name: String = "csr"
  def total(seeds: Seq[Int]): Long = sim.total(seeds.toArray, trials)
}

/** The total as a sum of per-trial activated counts — the one trial loop of
  * the two baseline estimators. Throws if a seed lies outside [0, n).
  */
sealed abstract class TrialSumEstimator(n: Int, trials: Int) extends InfluenceEstimator(trials) {
  /** Activated count of trial `trial` for `seeds`. */
  protected def count(seeds: Seq[Int], trial: Long): Int

  final def total(seeds: Seq[Int]): Long = {
    Simulator.requireSeeds(n, seeds)
    var sum = 0L
    var t = 0
    while (t < trials) { sum += count(seeds, t.toLong); t += 1 }
    sum
  }
}

/** σ̂ via the boxed-frontier baseline (the pure-Python analog). */
final class BoxedEstimator(n: Int, triples: Seq[(Int, Int, Double)], trials: Int, seed: Long, model: Model = IndependentCascade)
    extends TrialSumEstimator(n, trials) {
  val name: String = "boxed"
  private val adj = BoxedFrontier.buildAdjacency(triples)
  protected def count(seeds: Seq[Int], trial: Long): Int = model match {
    case IndependentCascade => BoxedFrontier.activatedCountIC(adj, seeds, trial, seed)
    case LinearThreshold => BoxedFrontier.activatedCountLT(adj, seeds, trial, seed)
  }
}

/** σ̂ via the full-scan baseline (the NDlib analog) — the backend the paper
  * reports as not finishing CELF within its time budget.
  */
final class FullScanEstimator(n: Int, triples: Seq[(Int, Int, Double)], trials: Int, seed: Long, model: Model = IndependentCascade)
    extends TrialSumEstimator(n, trials) {
  val name: String = "fullscan"
  private val adj = FullScan.buildAdjacency(triples)
  protected def count(seeds: Seq[Int], trial: Long): Int = model match {
    case IndependentCascade => FullScan.activatedCountIC(n, adj, seeds, trial, seed)
    case LinearThreshold => FullScan.activatedCountLT(n, adj, seeds, trial, seed)
  }
}

/** σ̂ with trials fanned out over the Spark cluster — same worlds, same
  * value, different execution substrate (see [[repro.spark.MonteCarlo]]).
  */
final class SparkEstimator(spark: SparkSession, g: CsrGraph, trials: Int, seed: Long, model: Model = IndependentCascade)
    extends InfluenceEstimator(trials) {
  val name: String = "spark"
  def total(seeds: Seq[Int]): Long = MonteCarlo.total(spark, g, seeds.toArray, trials, seed, model)
}
