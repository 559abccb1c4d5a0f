package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._
import repro.sort.LoserTree

/** Segmented sorting (paper §4.3): a stream sorted on (S, B) re-sorted on
  * (S, C) one segment at a time, with OVCs maintained throughout.
  */
class SegmentedSortSpec extends AnyFunSuite {

  /** Build an input sorted+coded on S++B whose payload carries C, and the
    * expected output: a reference sort on S++C.
    */
  private def makeCase(n: Int, segLen: Int, bLen: Int, cLen: Int, dpc: Int, seed: Long)
      : (Vector[CodedRow], Vector[CodedRow], Int, Int) = {
    val rnd = new scala.util.Random(seed)
    val inArity = segLen + bLen
    val rows = Array.fill(n) {
      val s = Array.fill(segLen)(rnd.nextInt(dpc).toLong)
      val b = Array.fill(bLen)(rnd.nextInt(dpc).toLong)
      val c = Array.fill(cLen)(rnd.nextInt(dpc).toLong)
      ERow(s ++ b, c)
    }
    val in = Ref.sortCoded(rows)
    val newArity = segLen + cLen
    val expectedRows = rows.map(r => ERow(r.key.take(segLen) ++ r.payload, r.payload))
    val expected = Ref.sortCoded(expectedRows)
    (in, expected, inArity, newArity)
  }

  for (seed <- 0 until 4; segLen <- Seq(1, 2); cLen <- Seq(1, 2)) {
    test(s"segmented sort matches full re-sort (segLen=$segLen, cLen=$cLen, seed=$seed)") {
      val (in, expected, inArity, newArity) = makeCase(1200, segLen, bLen = 2, cLen, dpc = 3, seed)
      val stats = new OvcStats
      val out = SegmentedSortOp(in.iterator, inArity, segLen, cLen, stats).toVector
      assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
      assert(out.map(_.code) == expected.map(_.code),
             "segment-refined codes must equal the reference coding")
      OvcInvariants.verifyChain(out, newArity)
    }
  }

  test("one giant segment (constant S) degenerates to a plain sort of C") {
    val rnd = new scala.util.Random(5)
    val rows = Array.fill(500)(ERow(Array(1L, rnd.nextInt(10).toLong), Array(rnd.nextInt(10).toLong)))
    val in = Ref.sortCoded(rows)
    val stats = new OvcStats
    val out = SegmentedSortOp(in.iterator, 2, 1, 1, stats).toVector
    val expected = Ref.sortCoded(rows.map(r => ERow(Array(1L, r.payload(0)), r.payload)))
    assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
    assert(out.map(_.code) == expected.map(_.code))
  }

  test("all-singleton segments (unique S) keep the stream unchanged in S order") {
    val rows = (0 until 300).map(i => ERow(Array(i.toLong, 7L), Array(3L))).toArray
    val in = Ref.sortCoded(rows)
    val stats = new OvcStats
    val out = SegmentedSortOp(in.iterator, 2, 1, 1, stats).toVector
    assert(out.map(_.key(0)) == (0 until 300).map(_.toLong))
    OvcInvariants.verifyChain(out, 2)
  }

  test("empty input") {
    val stats = new OvcStats
    assert(SegmentedSortOp(Iterator.empty, 3, 1, 1, stats).isEmpty)
  }

  /** Segmented sort rebuilt from merge-mode trees: split where the offset
    * falls below `segLen` (one code comparison per row past the first), merge
    * each segment from single-row runs coded at offset `segLen`, and give each
    * segment's first row its boundary code.
    */
  private def referenceSegmented(in: Vector[CodedRow], inArity: Int, segLen: Int, cLen: Int,
                                 stats: OvcStats): Vector[CodedRow] = {
    val newArity = segLen + cLen
    stats.codeComparisons += math.max(0, in.size - 1)
    val starts = in.indices.filter(i => i == 0 || Ovc.offsetOf(in(i).code, inArity) < segLen)
    (starts :+ in.size).sliding(2).filter(_.size == 2).flatMap { case Seq(a, b) =>
      val seg = in.slice(a, b)
      val singles = seg.map { r =>
        val key = r.key.take(segLen) ++ r.payload.take(cLen)
        Iterator.single(CodedRow(key, Ovc.pack(newArity, segLen, key(segLen)), r.payload))
      }
      val sorted = new LoserTree(singles, newArity, stats).toVector
      val first = seg.head.code
      sorted.head.copy(code = Ovc.pack(newArity, Ovc.offsetOf(first, inArity), Ovc.valueOf(first))) +:
        sorted.tail
    }.toVector
  }

  for (seed <- 0 until 3; segLen <- Seq(1, 2); cLen <- Seq(1, 2)) {
    test(s"segmented sort matches single-row-run trees exactly, counters included " +
         s"(segLen=$segLen, cLen=$cLen, seed=$seed)") {
      val (in, _, inArity, _) = makeCase(900, segLen, bLen = 2, cLen, dpc = 3, seed + 10)
      val stats, refStats = new OvcStats
      val out = SegmentedSortOp(in.iterator, inArity, segLen, cLen, stats).toVector
      val expected = referenceSegmented(in, inArity, segLen, cLen, refStats)
      assert(out.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
             expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      assert(stats.toString == refStats.toString)
    }
  }
}
