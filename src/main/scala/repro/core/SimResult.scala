package repro.core

/** Outcome of one diffusion trial.
  *
  * @param activationStep per-node activation time: `-1` if never activated,
  *                       `0` for seeds, `t` for nodes activated at step t.
  * @param newPerStep     number of nodes newly activated at each step
  *                       (index 0 = seeds); length = number of steps run.
  */
final case class SimResult(activationStep: Array[Int], newPerStep: Array[Int]) {

  /** Total number of activated nodes (the quantity σ averages). */
  def totalActivated: Int = newPerStep.sum

  /** Set of activated node ids — for cross-implementation equality tests. */
  def activatedSet: Set[Int] =
    activationStep.zipWithIndex.collect { case (s, v) if s >= 0 => v }.toSet
}

object SimResult {

  /** The one way to build a result: `run` performs a trial on an n-node graph
    * and reports each activated node once as `(node, step)`, in
    * non-decreasing step order. With no report at all (an empty seed set)
    * `newPerStep` is `Array(0)`.
    */
  def record(n: Int)(run: ((Int, Int) => Unit) => Unit): SimResult = {
    val step = new Array[Int](n)
    java.util.Arrays.fill(step, -1)
    var perStep = new Array[Int](1)
    var last = 0
    run { (v, t) =>
      step(v) = t
      if (t >= perStep.length) perStep = java.util.Arrays.copyOf(perStep, math.max(t + 1, 2 * perStep.length))
      perStep(t) += 1
      last = t
    }
    SimResult(step, java.util.Arrays.copyOf(perStep, last + 1))
  }
}
