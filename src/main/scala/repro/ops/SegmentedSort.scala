package repro.ops

import repro.core.{CodedRow, CodedStream, Ovc, OvcStats, RowCursor}
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
            stats: OvcStats): CodedStream = {
    require(segLen > 0 && segLen < inArity, s"bad segLen $segLen for arity $inArity")
    require(newSuffixLen > 0, "need a non-empty replacement suffix")
    val newArity = segLen + newSuffixLen

    new CodedStream {
      private[this] val src = RowCursor.of(in)
      // One row-buffer tree, refilled for every segment from key and payload
      // arrays pooled across segments: the input's arrays are its own.
      private[this] val tree = LoserTree.forRows(newArity, stats)
      private[this] var keyPool = new Array[Array[Long]](16)
      private[this] var payloadPool = new Array[Array[Long]](16)
      private[this] var pooled = 0 // pool entries in use by this segment
      private[this] var more = src.advance() // src is at the next segment's first row
      private[this] var boundaryCode = 0L
      private[this] var firstOut = false
      private[this] var c = 0L

      /** Re-keys `src`'s row to S ++ C into pooled arrays and buffers it. */
      private def add(): Unit = {
        if (pooled == keyPool.length) {
          keyPool = java.util.Arrays.copyOf(keyPool, 2 * pooled)
          payloadPool = java.util.Arrays.copyOf(payloadPool, 2 * pooled)
        }
        var key = keyPool(pooled)
        if (key == null) { key = new Array[Long](newArity); keyPool(pooled) = key }
        System.arraycopy(src.key, 0, key, 0, segLen)
        System.arraycopy(src.payload, 0, key, segLen, newSuffixLen)
        val p = src.payload
        var pay = payloadPool(pooled)
        if (pay == null || pay.length != p.length) { pay = new Array[Long](p.length); payloadPool(pooled) = pay }
        System.arraycopy(p, 0, pay, 0, p.length)
        pooled += 1
        tree.add(key, pay)
      }

      private def loadSegment(): Unit = {
        tree.clear()
        pooled = 0
        val first = src.code
        add()
        more = false
        while (!more && src.advance()) {
          stats.codeComparisons += 1
          if (Ovc.offsetOf(src.code, inArity) < segLen) more = true
          else add()
        }
        // Boundary code on the new key: offsets < segLen index shared S columns.
        boundaryCode = Ovc.pack(newArity, Ovc.offsetOf(first, inArity), Ovc.valueOf(first))
        firstOut = true
        // Every row enters coded relative to the segment base (S, -inf).
        tree.sortRows(segLen)
      }

      override protected def step(): Boolean = {
        if (!tree.advance()) {
          if (!more) return false
          loadSegment()
          tree.advance()
        }
        c = if (firstOut) boundaryCode else tree.code
        firstOut = false
        true
      }

      override def key: Array[Long] = tree.key
      override def code: Long = c
      override def payload: Array[Long] = tree.payload
    }
  }
}
