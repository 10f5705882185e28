package repro.baselines

import repro.core.{Rng, SimResult, Simulator}
import scala.collection.mutable

/** The "fast pure Python" rung of the paper's ladder: the *same* frontier
  * algorithm as the CSR engine, but over idiomatic high-level collections —
  * an immutable `Map[Int, Vector[(Int, Double)]]` adjacency (boxed tuples,
  * pointer-chasing) and hash-based status sets. The algorithmic work is
  * identical to [[repro.core.IndependentCascade]]; only the constant factors
  * differ, which is exactly the CyNetDiff-vs-pure-Python comparison.
  *
  * Each model has one traversal loop (`runIC`, `runLT`); the count paths pass
  * it a no-op report and the trace paths record its reports with
  * [[repro.core.SimResult.record]].
  */
object BoxedFrontier {

  /** Per-node rows of boxed (target, weight) tuples, sorted by target. */
  type Adjacency = Map[Int, Vector[(Int, Double)]]

  /** Adjacency map from directed (src, dst, weight) triples. Rows are sorted
    * by target, and of several edges with the same (src, dst) the first in
    * input order wins, as in [[repro.core.CsrGraph]].
    */
  def buildAdjacency(triples: Seq[(Int, Int, Double)]): Adjacency =
    triples.groupBy(_._1).map { case (u, es) =>
      u -> es.sortBy(_._2).distinctBy(_._2).map { case (_, v, w) => (v, w) }.toVector
    }

  private val ignore: (Int, Int) => Unit = (_, _) => ()

  /** One IC trial; same random world as the CSR engine (identical output).
    * Throws if a seed lies outside [0, n).
    */
  def simulateIC(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): SimResult = {
    Simulator.requireSeeds(n, seeds)
    SimResult.record(n)(runIC(adj, seeds, trial, seed, _))
  }

  /** One LT trial; forward-push accumulation, same thresholds as CSR. */
  def simulateLT(n: Int, adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): SimResult = {
    Simulator.requireSeeds(n, seeds)
    SimResult.record(n)(runLT(adj, seeds, trial, seed, _))
  }

  /** Activated-node count for one IC trial — the σ̂ hot path; the "pure
    * Python" CELF backend computes `len(activated)`. The adjacency does not
    * know n, so the caller must keep the seeds in [0, n): a seed outside it
    * is counted as one more isolated node. [[repro.im.BoxedEstimator]]
    * checks them once per σ̂.
    */
  def activatedCountIC(adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): Int =
    runIC(adj, seeds, trial, seed, ignore)

  /** Activated-node count for one LT trial (see [[activatedCountIC]]). */
  def activatedCountLT(adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long): Int =
    runLT(adj, seeds, trial, seed, ignore)

  /** The IC frontier loop: calls `f(node, step)` for each seed and each
    * activation, and returns the activated count.
    */
  private def runIC(adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long, f: (Int, Int) => Unit): Int = {
    val active = mutable.HashSet.empty[Int]
    var frontier = seeds.distinct.toVector
    frontier.foreach { s => active += s; f(s, 0) }
    var t = 0
    while (frontier.nonEmpty) {
      t += 1
      val next = mutable.ArrayBuffer.empty[Int]
      for {
        u <- frontier
        (v, w) <- adj.getOrElse(u, Vector.empty)
        if !active.contains(v) && Rng.coin(seed, trial, u, v) < w
      } {
        f(v, t)
        active += v
        next += v
      }
      frontier = next.toVector
    }
    active.size
  }

  /** The LT forward-push loop (see [[runIC]]). */
  private def runLT(adj: Adjacency, seeds: Seq[Int], trial: Long, seed: Long, f: (Int, Int) => Unit): Int = {
    val active = mutable.HashSet.empty[Int]
    val acc = mutable.Map.empty[Int, Double].withDefaultValue(0.0)
    var frontier = seeds.distinct.toVector
    frontier.foreach { s => active += s; f(s, 0) }
    var t = 0
    while (frontier.nonEmpty) {
      t += 1
      val next = mutable.ArrayBuffer.empty[Int]
      for {
        u <- frontier
        (v, w) <- adj.getOrElse(u, Vector.empty)
        if !active.contains(v)
      } {
        acc(v) = acc(v) + w
        if (acc(v) >= Rng.threshold(seed, trial, v)) {
          f(v, t)
          active += v
          next += v
        }
      }
      frontier = next.toVector
    }
    active.size
  }
}
