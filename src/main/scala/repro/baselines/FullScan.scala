package repro.baselines

import repro.core.{Rng, SimResult, Simulator}
import scala.collection.mutable

/** The NDlib rung of the paper's ladder: each time step loops over **every**
  * node in the graph to find the active ones, instead of tracking a frontier.
  * The paper singles this out as NDlib's structural inefficiency — per-step
  * work is Θ(n + m_active) even when only a handful of nodes are active —
  * and it dominates in workloads like CELF where most cascades are tiny.
  *
  * Data layout mirrors NDlib's NetworkX substrate: a dict-of-dicts adjacency
  * (`HashMap[Int, HashMap[Int, Double]]`, the shape of `G[u][v]['weight']`),
  * so every neighbor visit is a boxed map iteration and every weight read a
  * hash lookup — the constant-factor costs the paper attributes to the
  * interpreted stack, on top of the full-scan structural cost.
  *
  * Semantics and random worlds are identical to the CSR engine: an active
  * node attempts each inactive out-neighbor exactly once (status ACTIVE →
  * REMOVED after its attempt step, as NDlib does).
  *
  * Each model has one traversal loop (`runIC`, `runLT`); the count paths pass
  * it a no-op report and the trace paths record its reports with
  * [[repro.core.SimResult.record]].
  */
object FullScan {

  /** NetworkX-style dict-of-dicts adjacency. */
  type Adjacency = mutable.HashMap[Int, mutable.HashMap[Int, Double]]

  /** Build the dict-of-dicts from directed (src, dst, weight) triples. Of
    * several edges with the same (src, dst) the first in input order wins, as
    * in [[repro.core.CsrGraph]].
    */
  def buildAdjacency(triples: Seq[(Int, Int, Double)]): Adjacency = {
    val adj: Adjacency = mutable.HashMap.empty
    for ((u, v, w) <- triples)
      adj.getOrElseUpdate(u, mutable.HashMap.empty).getOrElseUpdate(v, w)
    adj
  }

  private val Inactive = 0
  private val Active = 1
  private val Removed = 2 // has spent its single activation attempt

  private val emptyRow = mutable.HashMap.empty[Int, Double]

  private val ignore: (Int, Int) => Unit = (_, _) => ()

  /** One IC trial; scans all n nodes every step (the NDlib pattern). */
  def simulateIC(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): SimResult =
    SimResult.record(n)(runIC(n, adj, seeds, trial, seed, _))

  /** One LT trial; recomputes every inactive node's active-in-neighbor weight
    * from scratch each step — the quadratic-flavored NDlib pattern. Needs the
    * reverse adjacency, built internally from the forward one.
    */
  def simulateLT(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): SimResult =
    SimResult.record(n)(runLT(n, adj, seeds, trial, seed, _))

  /** Activated-node count for one IC trial — the σ̂ hot path; NDlib's CELF
    * backend reads `len(infected)` off the status dict.
    */
  def activatedCountIC(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): Int =
    runIC(n, adj, seeds, trial, seed, ignore)

  /** Activated-node count for one LT trial (see [[activatedCountIC]]). */
  def activatedCountLT(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): Int =
    runLT(n, adj, seeds, trial, seed, ignore)

  /** The IC full-scan loop: calls `f(node, step)` for each seed and each
    * activation, and returns the activated count. Throws if a seed lies
    * outside [0, n).
    */
  private def runIC(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long, f: (Int, Int) => Unit): Int = {
    Simulator.requireSeeds(n, seeds)
    val status = mutable.HashMap.empty[Int, Int]
    (0 until n).foreach(v => status(v) = Inactive)
    var count = 0
    seeds.distinct.foreach { s => status(s) = Active; count += 1; f(s, 0) }
    var t = 0
    var changed = true
    while (changed) {
      changed = false
      t += 1
      val newlyActive = mutable.ArrayBuffer.empty[Int]
      // dict membership, as NDlib's per-step status-update dict
      val newlySet = mutable.HashSet.empty[Int]
      // The structural cost being measured: iterate over every node.
      var u = 0
      while (u < n) {
        if (status(u) == Active) {
          for ((v, _) <- adj.getOrElse(u, emptyRow)) {
            // weight re-read through the dict-of-dicts, NetworkX-style
            val w = adj(u)(v)
            if (status(v) == Inactive && !newlySet.contains(v) &&
                Rng.coin(seed, trial, u, v) < w) {
              f(v, t)
              newlyActive += v
              newlySet += v
            }
          }
          status(u) = Removed
        }
        u += 1
      }
      if (newlyActive.nonEmpty) {
        newlyActive.foreach(v => status(v) = Active)
        count += newlyActive.size
        changed = true
      }
    }
    count
  }

  /** The LT full-scan loop (see [[runIC]]); rebuilds the reverse adjacency
    * on every call.
    */
  private def runLT(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long, f: (Int, Int) => Unit): Int = {
    Simulator.requireSeeds(n, seeds)
    val radj: Adjacency = mutable.HashMap.empty
    for ((u, row) <- adj; (v, w) <- row)
      radj.getOrElseUpdate(v, mutable.HashMap.empty).update(u, w)
    val active = mutable.HashSet.empty[Int]
    seeds.distinct.foreach { s => active += s; f(s, 0) }
    var t = 0
    var changed = true
    while (changed) {
      changed = false
      t += 1
      val newlyActive = mutable.ArrayBuffer.empty[Int]
      var v = 0
      while (v < n) {
        if (!active.contains(v)) {
          var total = 0.0
          for ((u, _) <- radj.getOrElse(v, emptyRow))
            if (active.contains(u)) total += radj(v)(u)
          if (total >= Rng.threshold(seed, trial, v)) {
            newlyActive += v
            f(v, t)
          }
        }
        v += 1
      }
      if (newlyActive.nonEmpty) {
        newlyActive.foreach(active += _)
        changed = true
      }
    }
    active.size
  }
}
