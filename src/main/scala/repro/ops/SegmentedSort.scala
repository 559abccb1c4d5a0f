package repro.ops

import repro.core.{CodedRow, Ovc, OvcStats}
import repro.sort.LoserTree

/** Segmented sorting (paper §4.3).
  *
  * Input: a stream sorted and coded on key `S ++ B` (`inArity` columns) whose
  * payload's first `newSuffixLen` columns are the replacement suffix `C`.
  * Output: the stream re-sorted and coded on `S ++ C`.
  *
  * A segment boundary is a row whose offset is smaller than `segLen` — an
  * integer test on the packed code. Within a segment all offsets are cut to
  * `segLen`: every row enters the per-segment sort coded relative to the
  * segment base `(S, -inf)`, i.e. offset `segLen`, value `C(0)`; the
  * tree-of-losers sort then extends the offsets again. The first output row of
  * each segment carries the segment's boundary code (offsets < segLen refer to
  * `S` columns, which old and new key share).
  */
object SegmentedSortOp {

  def apply(in: Iterator[CodedRow], inArity: Int, segLen: Int, newSuffixLen: Int,
            stats: OvcStats): Iterator[CodedRow] = {
    require(segLen > 0 && segLen < inArity, s"bad segLen $segLen for arity $inArity")
    require(newSuffixLen > 0, "need a non-empty replacement suffix")
    val newArity = segLen + newSuffixLen

    new Iterator[CodedRow] {
      // One row-buffer tree, refilled for every segment.
      private[this] val tree = LoserTree.forRows(newArity, stats)
      private[this] var nextSeg: CodedRow = if (in.hasNext) in.next() else null
      private[this] var boundaryCode = 0L
      private[this] var firstOut = false

      /** Re-keys `r` to S ++ C and buffers it in the tree. */
      private def add(r: CodedRow): Unit = {
        val key = new Array[Long](newArity)
        System.arraycopy(r.key, 0, key, 0, segLen)
        System.arraycopy(r.payload, 0, key, segLen, newSuffixLen)
        tree.add(key, r.payload)
      }

      private def loadSegment(): Unit =
        if (!tree.hasNext && nextSeg != null) {
          val first = nextSeg
          nextSeg = null
          tree.clear()
          add(first)
          var continue = true
          while (continue && in.hasNext) {
            val r = in.next()
            stats.codeComparisons += 1
            if (Ovc.offsetOf(r.code, inArity) < segLen) { nextSeg = r; continue = false }
            else add(r)
          }
          // Boundary code on the new key: offsets < segLen index shared S columns.
          boundaryCode = Ovc.pack(newArity, Ovc.offsetOf(first.code, inArity), Ovc.valueOf(first.code))
          firstOut = true
          // Every row enters coded relative to the segment base (S, -inf).
          tree.sortRows(segLen)
        }

      override def hasNext: Boolean = { loadSegment(); tree.hasNext }
      override def next(): CodedRow = {
        loadSegment()
        val e = tree.winner
        val code = if (firstOut) boundaryCode else tree.code(e)
        firstOut = false
        val out = CodedRow(tree.key(e), code, tree.payload(e))
        tree.advance()
        out
      }
    }
  }
}
