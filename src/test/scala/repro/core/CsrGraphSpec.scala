package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{PropHelpers, SparkSpec}
import repro.graph.{Generators, GraphOps}
import repro.weights.EdgeWeights

/** CSR construction, invariants, degree math, DataFrame round-trip. */
class CsrGraphSpec extends SparkSpec with PropHelpers {

  private val triangle = Seq((0, 1, 0.5), (1, 2, 0.25), (2, 0, 0.75))

  /** Reference model: the original boxed builder (hash-set dedup keeping the
    * first occurrence, then a stable sort by (src, dst)).
    */
  private def referenceBuild(n: Int, triples: Seq[(Int, Int, Double)]): CsrGraph = {
    val seen = new java.util.HashSet[Long]()
    val uniq = triples.filter { case (u, v, _) => seen.add((u.toLong << 32) | (v.toLong & 0xffffffffL)) }
    val sorted = uniq.sortBy { case (u, v, _) => (u, v) }
    val offsets = new Array[Int](n + 1)
    sorted.foreach { case (u, _, _) => offsets(u + 1) += 1 }
    (0 until n).foreach(v => offsets(v + 1) += offsets(v))
    new CsrGraph(new CsrTopology(n, offsets, sorted.map(_._2).toArray), sorted.map(_._3).toArray)
  }

  /** True if some duplicated (src, dst) first occurs after an edge of the
    * same row with a larger target, so sorting must not reorder equal keys.
    */
  private def hasLateDuplicate(n: Int, triples: Seq[(Int, Int, Double)]): Boolean = {
    val count = triples.groupBy(e => (e._1, e._2)).map { case (k, es) => k -> es.size }
    val rowMax = Array.fill(n)(-1)
    val seen = scala.collection.mutable.HashSet.empty[(Int, Int)]
    triples.exists { case (u, v, _) =>
      val late = seen.add((u, v)) && count((u, v)) > 1 && rowMax(u) > v
      rowMax(u) = math.max(rowMax(u), v)
      late
    }
  }

  private def assertSameCsr(a: CsrGraph, b: CsrGraph, clue: String = ""): Unit = {
    assert(a.n == b.n, clue)
    assert(a.offsets.sameElements(b.offsets), s"offsets differ $clue")
    assert(a.targets.sameElements(b.targets), s"targets differ $clue")
    assert(a.weights.map(java.lang.Double.doubleToRawLongBits)
      .sameElements(b.weights.map(java.lang.Double.doubleToRawLongBits)), s"weights differ $clue")
  }

  test("fromTriples builds correct offsets for a triangle") {
    val g = CsrGraph.fromTriples(3, triangle)
    assert(g.offsets.toSeq == Seq(0, 1, 2, 3))
  }

  test("fromTriples stores targets and weights in row order") {
    val g = CsrGraph.fromTriples(3, triangle)
    assert(g.targets.toSeq == Seq(1, 2, 0))
    assert(g.weights.toSeq == Seq(0.5, 0.25, 0.75))
  }

  test("m is the number of directed edges") {
    assert(CsrGraph.fromTriples(3, triangle).m == 3)
  }

  test("outDegree matches the triple multiset") {
    val g = CsrGraph.fromTriples(4, Seq((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (2, 1, 1.0)))
    assert(g.outDegree(0) == 3)
    assert(g.outDegree(1) == 0)
    assert(g.outDegree(2) == 1)
    assert(g.outDegree(3) == 0)
  }

  test("inWeightSums sums incoming weights") {
    val g = CsrGraph.fromTriples(3, Seq((0, 2, 0.25), (1, 2, 0.5)))
    assert(g.inWeightSums.toSeq == Seq(0.0, 0.0, 0.75))
  }

  test("targets within a row are sorted") {
    val g = CsrGraph.fromTriples(4, Seq((0, 3, 1.0), (0, 1, 0.2), (0, 2, 0.3)))
    assert(g.targets.toSeq == Seq(1, 2, 3))
    assert(g.weights.toSeq == Seq(0.2, 0.3, 1.0))
  }

  test("duplicate (src, dst) pairs are dropped keeping the first weight") {
    val g = CsrGraph.fromTriples(2, Seq((0, 1, 0.9), (0, 1, 0.1)))
    assert(g.m == 1)
    assert(g.weights.toSeq == Seq(0.9))
  }

  test("out-of-range node ids are rejected") {
    assertThrows[IllegalArgumentException](CsrGraph.fromTriples(2, Seq((0, 2, 1.0))))
    assertThrows[IllegalArgumentException](CsrGraph.fromTriples(2, Seq((-1, 0, 1.0))))
  }

  test("NaN weights are rejected, naming the edge") {
    val e = intercept[IllegalArgumentException](
      CsrGraph.fromTriples(3, Seq((0, 1, 0.5), (1, 2, Double.NaN))))
    assert(e.getMessage.contains("(1,2)"))
  }

  test("negative weights are rejected, naming the edge") {
    val e = intercept[IllegalArgumentException](
      CsrGraph.fromTriples(3, Seq((2, 0, -0.25), (0, 1, 0.5))))
    assert(e.getMessage.contains("(2,0)"))
  }

  test("weights above 1 are rejected, naming the edge") {
    val e = intercept[IllegalArgumentException](
      CsrGraph.fromTriples(3, Seq((1, 2, 0.5), (0, 1, 1.5))))
    assert(e.getMessage.contains("(0,1)"))
  }

  test("zero and unit weights are accepted") {
    assert(CsrGraph.fromTriples(2, Seq((0, 1, 0.0), (1, 0, 1.0))).weights.toSeq == Seq(0.0, 1.0))
  }

  test("empty graph has n rows and zero edges") {
    val g = CsrGraph.fromTriples(5, Nil)
    assert(g.n == 5 && g.m == 0)
    assert(g.offsets.toSeq == Seq.fill(6)(0))
  }

  test("edgeTriples round-trips the (deduplicated, sorted) input") {
    val g = CsrGraph.fromTriples(3, triangle)
    assert(g.edgeTriples.toSet == triangle.toSet)
  }

  test("constructor validates offsets length") {
    assertThrows[IllegalArgumentException](
      new CsrGraph(new CsrTopology(2, Array(0, 0), Array.emptyIntArray), Array.emptyDoubleArray))
  }

  test("constructor validates offsets endpoints") {
    assertThrows[IllegalArgumentException](
      new CsrGraph(new CsrTopology(1, Array(0, 1), Array.emptyIntArray), Array.emptyDoubleArray))
  }

  test("constructor validates weights length") {
    assertThrows[IllegalArgumentException](
      new CsrGraph(new CsrTopology(1, Array(0, 1), Array(0)), Array.emptyDoubleArray))
  }

  /** A fixed random edge list no other test builds, with fresh weights. */
  private def sharedEdges(rnd: scala.util.Random, n: Int, m: Int): Seq[(Int, Int, Double)] =
    Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))

  private def reweighted(triples: Seq[(Int, Int, Double)], rnd: scala.util.Random): Seq[(Int, Int, Double)] =
    triples.map { case (u, v, _) => (u, v, rnd.nextDouble()) }

  test("graphs on one edge set share one topology and one key table, whatever their weights") {
    val rnd = new scala.util.Random(1919)
    val base = sharedEdges(rnd, 300, 2000)
    val g = CsrGraph.fromTriples(300, base)
    val variants = Seq(
      "other weights" -> reweighted(base, rnd),
      "permuted input" -> rnd.shuffle(reweighted(base, rnd)),
      "a duplicated edge" -> (reweighted(base, rnd) :+ (base(7)._1, base(7)._2, 0.125)),
    )
    val keys = new IcSimulator(g, 5).keys
    assert(keys eq g.topology.edgeKeys)
    variants.foreach { case (what, triples) =>
      val h = CsrGraph.fromTriples(300, triples)
      assert(h.topology eq g.topology, what)
      assert((h.offsets eq g.offsets) && (h.targets eq g.targets), what)
      assert(new IcSimulator(h, 9).keys eq keys, what)
      assert(!h.weights.sameElements(g.weights), what)
      assertSameCsr(h, referenceBuild(300, triples), what)
    }
  }

  test("graphs with another edge set or another n do not share a topology") {
    val rnd = new scala.util.Random(1920)
    val base = sharedEdges(rnd, 200, 1000)
    val g = CsrGraph.fromTriples(200, base)
    val (u, v, _) = base.head
    val without = base.filter(e => (e._1, e._2) != ((u, v)))
    val free = (0 until 200).find(x => !base.exists(e => e._1 == u && e._2 == x)).get
    val others = Seq(
      "one edge fewer" -> CsrGraph.fromTriples(200, without),
      "one edge redirected" -> CsrGraph.fromTriples(200, without :+ ((u, free, 0.5))),
      "another n" -> CsrGraph.fromTriples(201, base),
    )
    assert(others(1)._2.offsets.sameElements(g.offsets))
    others.foreach { case (what, h) =>
      assert(h.topology ne g.topology, what)
      assert(new IcSimulator(h, 5).keys ne new IcSimulator(g, 5).keys, what)
    }
  }

  test("TV, UR, WC and LT-normalised UR of one edge frame, built in turn, share one topology and one key table") {
    val edges = GraphOps.symmetrize(Generators.chungLuPowerLaw(spark, n = 500, m = 2500, beta = 0.66, seed = 20))
    val weighted = Seq(
      "TV" -> EdgeWeights("TV", edges, seed = 7),
      "UR" -> EdgeWeights("UR", edges, seed = 7),
      "WC" -> EdgeWeights("WC", edges, seed = 7),
      "LT" -> EdgeWeights.normalizeForLT(EdgeWeights("UR", edges, seed = 7)),
    )
    val built = weighted.map { case (what, df) =>
      val triples = GraphOps.toTriples(df)
      (what, triples.map(e => (e._1, e._2)), CsrGraph.fromTriples(500, triples))
    }
    val (_, tvOrder, tv) = built.head
    val keys = new IcSimulator(tv, 3).keys
    built.foreach { case (what, order, g) =>
      assert(g.topology eq tv.topology, what)
      assert(new IcSimulator(g, 3).keys eq keys, what)
      // WC and LT join the edges to per-node sums, so their rows come in another order.
      if (what == "WC" || what == "LT") assert(order != tvOrder, what)
    }
  }

  test("a rebuild of an edge set after another edge set gets a fresh topology with equal arrays") {
    val rnd = new scala.util.Random(1922)
    val a = sharedEdges(rnd, 100, 400)
    val ga = CsrGraph.fromTriples(100, a)
    val gb = CsrGraph.fromTriples(100, sharedEdges(rnd, 100, 400))
    val again = CsrGraph.fromTriples(100, reweighted(a, rnd))
    assert(gb.topology ne ga.topology)
    assert(again.topology ne ga.topology)
    assert(again.offsets.sameElements(ga.offsets) && again.targets.sameElements(ga.targets))
    assert(CsrGraph.fromTriples(100, a).topology eq again.topology)
  }

  test("inside repro.core the constructor takes a topology and weights") {
    // The same expression that GraphOpsSpec shows does not compile outside repro.core.
    assertCompiles("new CsrGraph(new CsrTopology(2, Array(0, 1, 1), Array(5)), Array(Double.NaN))")
  }

  private def serialize(x: AnyRef): Array[Byte] = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(x)
    out.close()
    bytes.toByteArray
  }

  private def deserialize[T](bytes: Array[Byte]): T =
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes)).readObject().asInstanceOf[T]

  test("a serialized graph ships no key table, and its copy simulates as the boxed baseline does") {
    val rnd = new scala.util.Random(1921)
    val g = CsrGraph.fromTriples(60, sharedEdges(rnd, 60, 300).map { case (u, v, w) => (u, v, w / 2) })
    // A deserialized copy keeps its own topology, whose table is not built yet.
    val copy = deserialize[CsrGraph](serialize(g))
    assert(copy.topology ne g.topology)
    assert(copy.n == g.n && copy.offsets.sameElements(g.offsets) && copy.targets.sameElements(g.targets))
    val unbuilt = serialize(copy).length
    val sim = new IcSimulator(copy, 31)
    assert(sim.keys ne g.topology.edgeKeys)
    assert(sim.keys.sameElements(g.topology.edgeKeys))
    assert(serialize(copy).length == unbuilt)
    assert(serialize(g).length == unbuilt)
    val adj = repro.baselines.BoxedFrontier.buildAdjacency(copy.edgeTriples)
    for (s <- 0 until copy.n; t <- 0 until 100)
      assert(sim.activatedCount(Array(s), t.toLong) ==
        repro.baselines.BoxedFrontier.activatedCountIC(adj, Seq(s), t.toLong, 31), s"seed $s, trial $t")
  }

  /** An edge DataFrame's CSR: collected by `toTriples`, then `fromTriples`. */
  private def fromDataFrame(df: org.apache.spark.sql.DataFrame, n: Int): CsrGraph =
    CsrGraph.fromTriples(n, GraphOps.toTriples(df))

  test("fromDataFrame equals fromTriples on the same edges") {
    import spark.implicits._
    val df = triangle.toDF("src", "dst", "weight")
    val a = fromDataFrame(df, 3)
    val b = CsrGraph.fromTriples(3, triangle)
    assert(a.offsets.toSeq == b.offsets.toSeq)
    assert(a.targets.toSeq == b.targets.toSeq)
    assert(a.weights.toSeq == b.weights.toSeq)
  }

  test("fromDataFrame rejects long ids that do not fit instead of wrapping them") {
    import spark.implicits._
    // 4294967297 = 2^32 + 1 would wrap to 1 under an Int cast.
    val wide = Seq((0L, 4294967297L, 0.5)).toDF("src", "dst", "weight")
    assertThrows[IllegalArgumentException](fromDataFrame(wide, 3))
    val negative = Seq((-1L, 0L, 0.5)).toDF("src", "dst", "weight")
    assertThrows[IllegalArgumentException](fromDataFrame(negative, 3))
  }

  test("fromDataFrame accepts in-range long ids") {
    import spark.implicits._
    val df = triangle.map { case (u, v, w) => (u.toLong, v.toLong, w) }.toDF("src", "dst", "weight")
    assertSameCsr(fromDataFrame(df, 3), CsrGraph.fromTriples(3, triangle))
  }

  test("fromTriples equals the reference builder on random inputs with duplicates") {
    var sawSelfLoop, sawLateDuplicate, sawEmpty, sawEmptyRow = false
    forAllRandom(iters = 400) { rnd =>
      val n = 1 + rnd.nextInt(300)
      val m = if (rnd.nextInt(10) == 0) 0 else rnd.nextInt(4 * n)
      val base = Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      // Re-add some edges with a fresh weight at random later positions, so a
      // duplicate's first occurrence is often not first in target order.
      val dups = base.filter(_ => rnd.nextInt(4) == 0).map { case (u, v, _) => (u, v, rnd.nextDouble()) }
      val loops = Seq.fill(rnd.nextInt(3))(rnd.nextInt(n)).map(v => (v, v, rnd.nextDouble()))
      val triples = base ++ rnd.shuffle(dups ++ loops)
      val g = CsrGraph.fromTriples(n, triples)
      assertSameCsr(g, referenceBuild(n, triples), s"n=$n m=${triples.size}")
      sawSelfLoop ||= triples.exists(e => e._1 == e._2)
      sawEmpty ||= triples.isEmpty
      sawEmptyRow ||= (n > 1 && triples.nonEmpty && (0 until n).exists(g.outDegree(_) == 0))
      sawLateDuplicate ||= hasLateDuplicate(n, triples)
    }
    assert(sawSelfLoop && sawLateDuplicate && sawEmpty && sawEmptyRow)
  }

  test("fromTriples equals the reference builder on a Facebook-sized graph") {
    val undirected = Generators.chungLuPowerLaw(spark, n = 4039, m = 88234, beta = 0.66, seed = 13)
    val triples = GraphOps.toTriples(EdgeWeights("UR", GraphOps.symmetrize(undirected), seed = 31))
    assert(triples.size > 150000)
    val rnd = new scala.util.Random(5)
    val withDups = triples ++ rnd.shuffle(triples.take(20000)).map { case (u, v, w) => (u, v, 1.0 - w) }
    assertSameCsr(CsrGraph.fromTriples(4039, withDups), referenceBuild(4039, withDups))
  }

  test("random graphs satisfy CSR invariants") {
    forAllRandom(iters = 50) { rnd =>
      val n = 1 + rnd.nextInt(30)
      val edges = Seq.fill(rnd.nextInt(60))((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      val g = CsrGraph.fromTriples(n, edges)
      assert(g.offsets.sliding(2).forall(p => p(0) <= p(1)), "offsets must be monotone")
      assert(g.m == edges.map(e => (e._1, e._2)).distinct.size)
      assert((0 until g.n).map(g.outDegree).sum == g.m)
    }
  }

  test("degree sums agree between CSR and DataFrame aggregation") {
    import spark.implicits._
    val edges = Seq((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 0, 1.0))
    val g = CsrGraph.fromTriples(4, edges)
    val df = edges.toDF("src", "dst", "weight")
    val dfOut = df.groupBy("src").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    (0 until 4).foreach(v => assert(g.outDegree(v).toLong == dfOut.getOrElse(v, 0L)))
  }
}
