package repro.core

/** A diffusion model — the one model selector shared by the influence
  * estimators ([[repro.im]]) and the Spark runner ([[repro.spark.MonteCarlo]]).
  *
  * Each model owns exactly one traversal kernel, its [[Simulator]]; the
  * convenience entry point below builds one and calls it.
  */
sealed trait Model extends Serializable {

  /** A reusable-state simulator for this model on `g`, drawing its random
    * world from `seed`. Not thread-safe; build one per thread or partition.
    * Building one allocates O(n). The first [[IcSimulator]] on a graph's
    * [[CsrTopology]] also hashes all m edges into the key table that every
    * later one on that topology shares; so only it pays O(m).
    */
  def simulator(g: CsrGraph, seed: Long): Simulator

  /** Run one trial with per-node activation steps.
    *
    * A convenience for one-off trials: each call builds a new [[simulator]],
    * which allocates O(n) on top of the trial itself, and for independent
    * cascade O(m) more if it is the first on the graph's [[CsrTopology]]. Loops
    * over trials should build one simulator and call it.
    *
    * @param g     CSR graph; `g.weights(i)` is the weight of edge
    *              (src, targets(i))
    * @param seeds initially active nodes (ids in [0, g.n); duplicates count
    *              once)
    * @param trial trial index — selects the random world
    * @param seed  experiment-level RNG seed
    */
  final def simulate(g: CsrGraph, seeds: Array[Int], trial: Long, seed: Long): SimResult =
    simulator(g, seed).simulate(seeds, trial)
}

/** Frontier-based independent-cascade model over a CSR graph — the
  * reproduction of the paper's core engine.
  *
  * Implements Observation 1: a node activated at time t must have an
  * in-neighbor activated at t-1, so each step only scans the out-edges of the
  * previous step's newly-activated frontier (BFS order). Work is proportional
  * to edges incident to activated nodes, not to the size of the graph —
  * the property that makes CELF's many tiny cascades cheap.
  *
  * Each edge (u, v) is live in trial t with probability `w(u, v)`, decided by
  * [[Rng.coin]]. All state is primitive arrays (see [[IcSimulator]]): no
  * boxing, no hashing — the JVM analog of the Cython implementation.
  */
object IndependentCascade extends Model {
  def simulator(g: CsrGraph, seed: Long): IcSimulator = new IcSimulator(g, seed)
}

/** Frontier-based linear-threshold model over a CSR graph.
  *
  * Each node v draws a threshold θ_v uniformly in [0,1) per trial (via the
  * counter-based RNG, so every implementation sees the same thresholds).
  * v activates once the summed weight of its *active* in-neighbors reaches
  * θ_v. Instead of re-scanning in-neighborhoods each step, we forward-push:
  * when u activates we add w(u,v) to an accumulator at each out-neighbor v,
  * and v activates the moment its accumulator crosses its threshold. This is
  * the same frontier discipline as IC (Observation 1): per-step work is
  * proportional to edges leaving newly activated nodes.
  *
  * Weights must satisfy Σ_{u in in(v)} w(u,v) <= 1 (see
  * [[repro.weights.EdgeWeights.normalizeForLT]]); the model is only
  * well-defined under it, so [[LtSimulator]] rejects a graph that breaks it.
  */
object LinearThreshold extends Model {
  def simulator(g: CsrGraph, seed: Long): LtSimulator = new LtSimulator(g, seed)
}
