package repro.ops

import repro.core.{CodedRow, CodedStream, Ovc, OvcStats, RowCursor}

/** Filter over a sorted, coded stream (paper §4.1): an output row's code is
  * the max (ascending coding) of its input code and the codes of all rows
  * dropped since the previous output row — a direct application of the
  * theorem `ovc(A,C) = max(ovc(A,B), ovc(B,C))`. No column comparisons.
  */
object FilterOp {

  /** `pred` sees each input row as a [[CodedRow]] over the input's arrays,
    * valid only during the call: one allocation per input row, unless the
    * JIT inlines `pred` and removes it.
    */
  def apply(in: Iterator[CodedRow], pred: CodedRow => Boolean): CodedStream =
    onCursor(in, r => pred(CodedRow(r.key, r.code, r.payload)))

  /** `pred` reads each input row through the input's cursor: nothing is
    * allocated per row.
    */
  def onCursor(in: Iterator[CodedRow], pred: RowCursor => Boolean): CodedStream =
    new CodedStream {
      private[this] val src = RowCursor.of(in)
      private[this] var pendingMax = 0L
      private[this] var c = 0L

      override protected def step(): Boolean = {
        while (src.advance()) {
          if (pred(src)) {
            c = math.max(src.code, pendingMax)
            pendingMax = 0L
            return true
          }
          pendingMax = math.max(pendingMax, src.code)
        }
        false
      }

      override def key: Array[Long] = src.key
      override def code: Long = c
      override def payload: Array[Long] = src.payload
    }
}

/** Projection (paper §4.2): keep the first `keepLen` key columns. Offsets are
  * capped to the surviving prefix; a row whose first difference lay beyond the
  * surviving prefix becomes a duplicate w.r.t. the shortened key (code 0).
  * Output may contain duplicates — "relationally pure" projection follows
  * with [[DedupOp]].
  */
object ProjectOp {
  def capCode(code: Long, arity: Int, keepLen: Int): Long = {
    val off = Ovc.offsetOf(code, arity)
    if (off >= keepLen) 0L else Ovc.pack(keepLen, off, Ovc.valueOf(code))
  }

  def apply(in: Iterator[CodedRow], arity: Int, keepLen: Int): CodedStream = {
    require(keepLen > 0 && keepLen <= arity, s"bad keepLen $keepLen for arity $arity")
    new CodedStream {
      private[this] val src = RowCursor.of(in)
      override val key: Array[Long] = new Array[Long](keepLen)

      override protected def step(): Boolean =
        src.advance() && { System.arraycopy(src.key, 0, key, 0, keepLen); true }

      override def code: Long = capCode(src.code, arity, keepLen)
      override def payload: Array[Long] = src.payload
    }
  }
}

/** Duplicate removal in a sorted coded stream (paper §4.4): suppress rows
  * whose offset equals the arity; all surviving rows keep their input codes
  * (the duplicate code 0 is the identity of the §4.1 max-fold).
  */
object DedupOp {
  def apply(in: Iterator[CodedRow]): CodedStream =
    new CodedStream {
      private[this] val src = RowCursor.of(in)

      override protected def step(): Boolean = {
        while (src.advance()) if (!Ovc.isDup(src.code)) return true
        false
      }

      override def key: Array[Long] = src.key
      override def code: Long = src.code
      override def payload: Array[Long] = src.payload
    }
}

/** In-stream grouping / aggregation (paper §4.5, Figure 1): a group boundary
  * is a row whose offset is smaller than the "group by" arity — one integer
  * test per row against the packed code, no column accesses. The output row
  * keeps the code of the group's first input row, re-packed to the group-key
  * arity. Aggregates: row count and, when a payload is present, the sum of
  * payload column 0.
  */
object GroupAggOp {

  @inline def isBoundary(code: Long, inArity: Int, groupLen: Int): Boolean =
    (code >>> Ovc.ValueBits) > (inArity - groupLen).toLong // offset < groupLen

  /** OVC-driven variant: boundary detection via the packed code only. */
  def countByOvc(in: Iterator[CodedRow], inArity: Int, groupLen: Int,
                 stats: OvcStats): CodedStream =
    new GroupStream(in, inArity, groupLen) {
      override protected def startGroup(): Long =
        Ovc.pack(groupLen, Ovc.offsetOf(src.code, inArity), Ovc.valueOf(src.code))

      override protected def endsGroup(): Boolean = {
        stats.codeComparisons += 1
        isBoundary(src.code, inArity, groupLen)
      }
    }

  /** Baseline: boundary detection by comparing the group-key prefix of each
    * row against the previous row, column by column (Figure 1's "full
    * comparisons of multiple key columns").
    */
  def countByFullCompare(in: Iterator[CodedRow], inArity: Int, groupLen: Int,
                         stats: OvcStats): CodedStream =
    new GroupStream(in, inArity, groupLen) {
      private[this] var boundaryCode: Long = if (pending) Ovc.pack(groupLen, 0, src.key(0)) else 0L

      override protected def startGroup(): Long = boundaryCode

      override protected def endsGroup(): Boolean = {
        // Full prefix comparison against the current group's key.
        var i = 0
        var diff = -1
        while (diff < 0 && i < groupLen) {
          stats.columnComparisons += 1
          if (key(i) != src.key(i)) diff = i
          i += 1
        }
        if (diff >= 0) boundaryCode = Ovc.pack(groupLen, diff, src.key(diff))
        diff >= 0
      }
    }

  /** The group count both variants share: one output row per group, keyed on
    * the group's first `groupLen` columns, with payload (count, sum of payload
    * column 0), in arrays reused for every group.
    */
  private abstract class GroupStream(in: Iterator[CodedRow], inArity: Int, groupLen: Int)
      extends CodedStream {
    require(groupLen > 0 && groupLen <= inArity)
    protected final val src: RowCursor = RowCursor.of(in)
    // src is at the first row of a group not yet emitted.
    protected final var pending: Boolean = src.advance()
    override final val key: Array[Long] = new Array[Long](groupLen)
    override final val payload: Array[Long] = new Array[Long](2)
    private[this] var c = 0L

    /** The code of the group that starts at `src`'s row. */
    protected def startGroup(): Long

    /** Whether `src`'s row, past the group's first, starts a new group. */
    protected def endsGroup(): Boolean

    override final def code: Long = c

    override protected final def step(): Boolean = pending && {
      System.arraycopy(src.key, 0, key, 0, groupLen)
      c = startGroup()
      var count = 1L
      var sum = if (src.payload.length > 0) src.payload(0) else 0L
      pending = false
      while (!pending && src.advance()) {
        if (endsGroup()) pending = true
        else { count += 1; if (src.payload.length > 0) sum += src.payload(0) }
      }
      payload(0) = count; payload(1) = sum
      true
    }
  }
}
