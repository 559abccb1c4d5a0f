package repro.ops

import scala.collection.mutable.ArrayBuffer

import org.scalatest.funsuite.AnyFunSuite

import repro.TestFiles._
import repro.core._
import repro.sort.{ExternalSort, SpillStats}

/** Operators read each other as [[CodedStream]]s over reused arrays. Every
  * operator must give the same rows, codes and counters whether its inputs
  * are streams that reuse their arrays or iterators of rows with their own,
  * and the rows its iterator view returns must own their arrays.
  */
class OperatorStreamSpec extends AnyFunSuite {

  /** A stream over `rows` that copies each into one key and one payload
    * array, as an operator that reuses its arrays does: a reader that keeps
    * an array sees it overwritten by the next row.
    */
  private final class Reusing(rows: Seq[CodedRow]) extends CodedStream {
    private[this] val it = rows.iterator
    private[this] var k = Array.emptyLongArray
    private[this] var p = Array.emptyLongArray
    private[this] var c = 0L

    override protected def step(): Boolean = it.hasNext && {
      val r = it.next()
      if (k.length != r.key.length) k = new Array[Long](r.key.length)
      if (p.length != r.payload.length) p = new Array[Long](r.payload.length)
      System.arraycopy(r.key, 0, k, 0, k.length)
      System.arraycopy(r.payload, 0, p, 0, p.length)
      c = r.code
      true
    }

    override def key: Array[Long] = k
    override def code: Long = c
    override def payload: Array[Long] = p
  }

  private def copied(rows: Seq[CodedRow]): Iterator[CodedRow] =
    rows.iterator.map(r => CodedRow.copyOf(r.key, r.code, r.payload))

  private def values(rows: Seq[CodedRow]): Vector[(Vector[Long], Long, Vector[Long])] =
    rows.map(r => (r.key.toVector, r.code, r.payload.toVector)).toVector

  /** Drains `c` as a cursor, copying each row's values. */
  private def drain(c: RowCursor): Vector[(Vector[Long], Long, Vector[Long])] = {
    val out = Vector.newBuilder[(Vector[Long], Long, Vector[Long])]
    while (c.advance()) out += ((c.key.toVector, c.code, c.payload.toVector))
    out.result()
  }

  /** An operator under test: its inputs, output arity and how it is built. */
  private final case class Case(name: String, inputs: Seq[Vector[CodedRow]], arity: Int,
                                op: (Seq[Iterator[CodedRow]], OvcStats) => Iterator[CodedRow])

  private def sorted(n: Int, arity: Int, dpc: Int, seed: Long, payloadArity: Int): Vector[CodedRow] =
    DataGen.refSortCoded(DataGen.randomRows(n, arity, dpc, seed, payloadArity))

  private val in3 = sorted(800, 3, 4, seed = 1, payloadArity = 2) // many duplicates
  private val right2 = sorted(40, 2, 5, seed = 2, payloadArity = 1) // misses some left keys
  private val joinTypes = Seq(JoinType.Inner, JoinType.LeftSemi, JoinType.LeftAnti, JoinType.LeftOuter)

  /** `right2`'s rows by key, each as its payload (an empty key suffix). */
  private val lookup: Array[Long] => IndexedSeq[(Array[Long], Array[Long])] = {
    val byKey = right2.groupBy(_.key.toVector)
    k => byKey.getOrElse(k.toVector, Vector.empty).map(r => (Array.emptyLongArray, r.payload))
  }

  private val cases: Seq[Case] = Seq(
    Case("FilterOp", Seq(in3), 3, (in, _) => FilterOp(in.head, r => r.key(1) != 0 && r.payload(0) % 3 != 0)),
    Case("FilterOp.onCursor", Seq(in3), 3,
         (in, _) => FilterOp.onCursor(in.head, r => r.key(1) != 0 && r.payload(0) % 3 != 0)),
    Case("ProjectOp", Seq(in3), 2, (in, _) => ProjectOp(in.head, 3, 2)),
    Case("DedupOp", Seq(in3), 3, (in, _) => DedupOp(in.head)),
    Case("DedupOp after ProjectOp", Seq(in3), 1, (in, _) => DedupOp(ProjectOp(in.head, 3, 1))),
    Case("GroupAggOp.countByOvc", Seq(in3), 2, (in, s) => GroupAggOp.countByOvc(in.head, 3, 2, s)),
    Case("GroupAggOp.countByFullCompare", Seq(in3), 2,
         (in, s) => GroupAggOp.countByFullCompare(in.head, 3, 2, s)),
    Case("SegmentedSortOp", Seq(in3), 3, (in, s) => SegmentedSortOp(in.head, 3, 1, 2, s)),
    Case("Shuffle.merge", Shuffle.split(in3.iterator, 3, r => (r.payload(1) % 3).toInt), 3,
         (in, s) => Shuffle.merge(in.toIndexedSeq, 3, s)),
  ) ++ joinTypes.map { jt =>
    Case(s"MergeJoinOp $jt", Seq(in3, right2), 3,
         (in, s) => MergeJoinOp(in(0), 3, in(1), 2, 2, jt, s, rightPayloadArity = 1))
  } ++ joinTypes.map { jt =>
    Case(s"LookupJoinOp $jt", Seq(in3), 3,
         (in, s) => LookupJoinOp(in.head, 3, 2, lookup, jt, s, nullSentinelArity = 1))
  }

  for (c <- cases) {
    test(s"${c.name}: upstream streams and copied rows give the same rows, codes and counters") {
      val viaStreams, viaRows, viaCursor = new OvcStats
      val a = c.op(c.inputs.map(new Reusing(_)), viaStreams).toVector
      val b = c.op(c.inputs.map(copied), viaRows).toVector
      assert(a.nonEmpty)
      assert(values(a) == values(b))
      assert(viaStreams.toString == viaRows.toString)
      OvcInvariants.verifyChain(a, c.arity)
      // Read as a cursor, the operator gives the same rows and counters.
      assert(drain(RowCursor.of(c.op(c.inputs.map(new Reusing(_)), viaCursor))) == values(a))
      assert(viaCursor.toString == viaStreams.toString)
    }

    test(s"${c.name}: rows of the iterator view own their arrays") {
      val out = c.op(c.inputs.map(new Reusing(_)), new OvcStats).toVector
      assert(ownArrays(out), "two returned rows share a key or payload array")
    }

    test(s"${c.name}: a row that hasNext fetched is handed to advance") {
      val expected = values(c.op(c.inputs.map(copied), new OvcStats).toVector)
      val it = c.op(c.inputs.map(new Reusing(_)), new OvcStats)
      val s = RowCursor.of(it)
      assert(s eq it)
      assert(it.hasNext && it.hasNext) // the second call keeps the fetched row
      assert(drain(s) == expected)
      assert(!it.hasNext && !s.advance())
    }
  }

  test("an RLE scan is a stream that its consumer reads directly") {
    val scan = RleTable.fromSortedKeys(in3.map(_.key)).scan(new OvcStats)
    assert(RowCursor.of(scan) eq scan)
  }

  /** `select a, b, d, count(*) from L join R on (a, b, c) where L.e < 700
    * group by a, b, d` over sorted RLE tables L(a, b, c, e) and R(a, b, c, d),
    * `side` values of a and b and 160 of c.
    */
  private final class Pipeline(side: Int, seed: Long) {
    val (lKeys, rKeys) = {
      val rnd = new java.util.Random(seed)
      def distinct(domain: Int, max: Int) = Array.fill(1 + rnd.nextInt(max))(rnd.nextInt(domain).toLong).distinct.sorted
      val l, r = ArrayBuffer.empty[Array[Long]]
      for (a <- 0 until side; b <- 0 until side; c <- 0 until 160) {
        if (rnd.nextBoolean()) distinct(1000, 4).foreach(e => l += Array(a.toLong, b.toLong, c.toLong, e))
        if (rnd.nextBoolean()) distinct(8, 3).foreach(d => r += Array(a.toLong, b.toLong, c.toLong, d))
      }
      (l.toVector, r.toVector)
    }
    val lTable: RleTable = RleTable.fromSortedKeys(lKeys)
    val rTable: RleTable = RleTable.fromSortedKeys(rKeys)

    /** The plan's stages; `feed` passes each stage's output to the next. */
    def run(stats: OvcStats, feed: Iterator[CodedRow] => Iterator[CodedRow]): Iterator[CodedRow] = {
      val filtered = FilterOp.onCursor(feed(lTable.scan(stats)), r => r.key(3) < 700)
      val joined = MergeJoinOp(feed(filtered), 4, feed(rTable.scan(stats)), 4, 3, JoinType.Inner, stats)
      GroupAggOp.countByOvc(feed(SegmentedSortOp(feed(joined), 4, 2, 1, stats)), 3, 3, stats)
    }

    def reference: Map[Vector[Long], Long] = {
      val ds = rKeys.groupBy(k => k.take(3).toVector).map { case (abc, ks) => abc -> ks.map(_(3)) }
      lKeys.filter(_(3) < 700).flatMap(k => ds.getOrElse(k.take(3).toVector, Nil).map(d => Vector(k(0), k(1), d)))
        .groupBy(identity).map { case (g, xs) => g -> xs.size.toLong }
    }
  }

  test("an ordered pipeline of streams equals the same pipeline over materialized stages") {
    val p = new Pipeline(side = 6, seed = 3)
    val streamed, staged = new OvcStats
    val a = p.run(streamed, identity).toVector
    val b = p.run(staged, it => copied(it.toVector)).toVector
    assert(values(a) == values(b))
    assert(streamed.toString == staged.toString)
    OvcInvariants.verifyChain(a, 3)
    assert(a.map(g => g.key.toVector -> g.payload(0)).toMap == p.reference)
  }

  test("a half-drained sort feeding a merge join still closes and deletes its runs") {
    assume(canListOpenFiles, "needs /proc/self/fd to list open files")
    withTmpDir { dir =>
      val stats = new OvcStats
      val spill = new SpillStats
      val s1 = ExternalSort.sort(DataGen.randomRows(3000, 2, 60, seed = 4).iterator, 2, 0, 400, stats, spill,
                                 dedup = true, tmpDir = dir)
      val s2 = ExternalSort.sort(DataGen.randomRows(3000, 2, 60, seed = 5).iterator, 2, 0, 400, stats, spill,
                                 dedup = true, tmpDir = dir)
      val joined = MergeJoinOp(s1, 2, s2, 2, 2, JoinType.LeftSemi, stats)
      assert(dir.toFile.list().length == 16)
      var n = 0
      while (n < 100 && joined.advance()) n += 1
      assert(n == 100)
      assert(openUnder(dir).nonEmpty)
      s1.close(); s2.close()
      assert(openUnder(dir).isEmpty)
      assert(dir.toFile.list().isEmpty)
      assert(!joined.hasNext)
    }
  }

  test("draining scan, filter, merge join, segmented sort and group count allocates per group emitted") {
    val bean = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    assume(bean.isThreadAllocatedMemorySupported && bean.isThreadAllocatedMemoryEnabled)
    // ~217,000 input rows, ~80,000 join rows, ~5,000 groups.
    val p = new Pipeline(side = 25, seed = 6)
    def drain(): (Long, Long, Long) = {
      val stats = new OvcStats
      val before = bean.getCurrentThreadAllocatedBytes
      val groups = p.run(stats, identity)
      var n, rows = 0L
      while (groups.hasNext) { rows += groups.next().payload(0); n += 1 }
      (bean.getCurrentThreadAllocatedBytes - before, n, rows)
    }
    drain() // loads and compiles what the measured drain runs
    val (bytes, groups, joinRows) = drain()
    val expected = p.reference
    assert(groups == expected.size && joinRows == expected.values.sum)
    val inputRows = p.lKeys.size + p.rKeys.size
    assert(inputRows > 200000 && joinRows > 15 * groups)
    // A group returned by the iterator view is a row, a 3-column key and a
    // 2-column payload: 104 B. 128 B per group plus 256 KiB for the
    // operators' arrays leaves room, yet per input row it allows under 4 B.
    // (The filter reads the cursor: a `CodedRow` predicate would cost a row
    // per input row wherever the JIT does not inline it.)
    val bound = 128L * groups + (256L << 10)
    info(s"allocated $bytes B for $groups groups from $inputRows input rows")
    assert(bytes <= bound,
           s"drain allocated $bytes B for $groups groups from $inputRows input rows (bound $bound B)")
  }
}
