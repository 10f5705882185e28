package repro.core

/** Counter-based (hash) randomness shared by every diffusion implementation.
  *
  * All stochastic decisions in the reproduction — IC edge coin flips and LT
  * node thresholds — are pure functions of `(seed, trial, identity)` computed
  * with the splitmix64 finalizer. This is the keystone of the test strategy:
  *
  *   - The CSR engine, the boxed-frontier baseline, the full-scan baseline,
  *     the Spark-distributed runner and the DataFrame-join implementation all
  *     observe *bit-identical* random worlds, so they must produce identical
  *     activated sets — a much stronger check than comparing means.
  *   - For IC, a fixed assignment of coins to edges is exactly a *live-edge*
  *     world (Kempe et al. 2003), so the Monte-Carlo influence estimate over
  *     a fixed set of trials is monotone submodular, making `CELF == Greedy`
  *     an exact (non-statistical) test.
  *
  * splitmix64's finalizer is a strong 64-bit mixer (used by SplittableRandom);
  * chaining it over the inputs gives well-distributed, independent-looking
  * streams at negligible cost.
  */
object Rng {

  /** splitmix64 finalizer: bijective 64-bit mix with full avalanche. */
  @inline def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Map a mixed 64-bit value to a double uniform in [0, 1). */
  @inline def toUnit(bits: Long): Double = (bits >>> 11) * 1.1102230246251565e-16 // 2^-53

  /** The trial-independent part of directed edge (u, v)'s coin: the
    * innermost of [[coin]]'s three hashes. [[IcSimulator]] computes it once
    * per edge and keeps it, so each coin it draws costs two hashes.
    */
  @inline def edgeKey(u: Int, v: Int): Long = mix64((u.toLong << 32) ^ (v.toLong & 0xffffffffL))

  /** The coin of the edge whose [[edgeKey]] is `key`, in a given trial. */
  @inline def coinOf(seed: Long, trial: Long, key: Long): Double = toUnit(mix64(seed ^ mix64(trial ^ key)))

  /** Uniform [0,1) coin for directed edge (u, v) in a given trial.
    *
    * Depends only on the edge identity and the trial, never on traversal
    * order — this is what makes an IC trial a live-edge world.
    */
  @inline def coin(seed: Long, trial: Long, u: Int, v: Int): Double = coinOf(seed, trial, edgeKey(u, v))

  /** Uniform [0,1) LT threshold for node v in a given trial. */
  @inline def threshold(seed: Long, trial: Long, v: Int): Double =
    toUnit(mix64(seed ^ mix64(~trial ^ mix64(0x5151515151515151L ^ v.toLong))))

  /** Uniform [0,1) value for a keyed draw (Table 1's seed sample). */
  @inline def unit(seed: Long, key: Long): Double =
    toUnit(mix64(seed ^ mix64(key)))
}
