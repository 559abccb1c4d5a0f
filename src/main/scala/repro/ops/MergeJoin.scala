package repro.ops

import repro.core.{CodedRow, CodedStream, Ovc, OvcComparator, OvcStats, RowCursor}

/** Join types supported by [[MergeJoinOp]] and [[LookupJoinOp]]. Right-sided
  * variants follow by swapping inputs; set operations map onto these (§4.7):
  * intersection ~ semi/inner join of distinct streams, difference ~ anti join.
  */
sealed trait JoinType
object JoinType {
  case object Inner     extends JoinType
  case object LeftSemi  extends JoinType
  case object LeftAnti  extends JoinType
  case object LeftOuter extends JoinType
}

/** The right-side matches of one join key, each its key suffix then its
  * payload, copied into arrays reused for every group.
  */
private[ops] final class JoinGroup {
  private[this] var data = new Array[Long](16)
  private[this] var ends = new Array[Int](4) // ends(i): where match i ends in data
  private[this] var n = 0

  def size: Int = n
  def clear(): Unit = n = 0
  def start(i: Int): Int = if (i == 0) 0 else ends(i - 1)
  def end(i: Int): Int = ends(i)
  def values: Array[Long] = data

  /** Appends `key[from..)` then `payload` as one match. */
  def add(key: Array[Long], from: Int, payload: Array[Long]): Unit = {
    val s = start(n)
    val len = key.length - from + payload.length
    if (s + len > data.length) data = java.util.Arrays.copyOf(data, math.max(2 * data.length, s + len))
    if (n == ends.length) ends = java.util.Arrays.copyOf(ends, 2 * n)
    System.arraycopy(key, from, data, s, key.length - from)
    System.arraycopy(payload, 0, data, s + key.length - from, payload.length)
    ends(n) = s + len
    n += 1
  }
}

/** The output side of [[MergeJoinOp]] and [[LookupJoinOp]], one row at a
  * time with no column comparisons: left rows the join drops fold their
  * codes into the next output row (max rule, §4.1); extra outputs of one
  * left row carry the duplicate code. An output row keeps the left row's key
  * array; a joined payload, `left.payload ++ match` (or `++ nullExt` for an
  * unmatched outer row), is built in one reused array.
  *
  * [[unmatched]] and [[matched]] take the left row the join has reached and
  * return whether they made an output row ([[key]], [[code]], [[payload]]);
  * [[more]] makes the next one for the same left row while its matches last.
  */
private[ops] final class JoinEmitter(jt: JoinType, nullExt: Array[Long]) {
  /** The matches of the current join key (inner and outer joins). */
  val group = new JoinGroup
  private[this] var pending = 0L // max-fold of dropped left rows' codes
  private[this] var todo = 0     // matches of the current left row not yet output
  private[this] var buf = Array.emptyLongArray

  var key: Array[Long] = null
  var code: Long = 0L
  var payload: Array[Long] = null

  private def drop(l: RowCursor): Boolean = { pending = math.max(pending, l.code); false }

  /** Output `l` with the code `c` and payload `p`. */
  private def out(l: RowCursor, c: Long, p: Array[Long]): Boolean = {
    key = l.key; code = c; payload = p
    true
  }

  /** Code of the next emitted left row: own code folded with dropped rows'. */
  private def fold(l: RowCursor): Long = { val c = math.max(l.code, pending); pending = 0L; c }

  /** `lp ++ src[from until to]` in the reused array. */
  private def joined(lp: Array[Long], src: Array[Long], from: Int, to: Int): Array[Long] = {
    val n = lp.length + to - from
    if (buf.length != n) buf = new Array[Long](n)
    System.arraycopy(lp, 0, buf, 0, lp.length)
    System.arraycopy(src, from, buf, lp.length, to - from)
    buf
  }

  def unmatched(l: RowCursor): Boolean = jt match {
    case JoinType.Inner | JoinType.LeftSemi => drop(l)
    case JoinType.LeftAnti => out(l, fold(l), l.payload)
    case JoinType.LeftOuter => out(l, fold(l), joined(l.payload, nullExt, 0, nullExt.length))
  }

  /** `l` matched: inner and outer joins output one row per match in [[group]]. */
  def matched(l: RowCursor): Boolean = jt match {
    case JoinType.LeftSemi => out(l, fold(l), l.payload)
    case JoinType.LeftAnti => drop(l)
    case JoinType.Inner | JoinType.LeftOuter => todo = group.size; more(l)
  }

  /** The next output of the left row `l` that [[matched]] the group. */
  def more(l: RowCursor): Boolean = todo > 0 && {
    val i = group.size - todo
    todo -= 1
    // Past the first match, a duplicate left key in the output.
    out(l, if (i == 0) fold(l) else 0L, joined(l.payload, group.values, group.start(i), group.end(i)))
  }
}

/** Sort-based merge join with offset-value codes on both inputs (paper §4.7).
  *
  * Join predicate: equality on the first `joinLen` key columns of each side.
  * Both inputs must be sorted and coded on their full keys.
  *
  * '''Match logic.''' The advancing comparisons use codes capped to the join
  * prefix (the projection rule of §4.2) and maintain the two-entry
  * tree-of-losers invariant: both current rows are coded relative to a common
  * base in join-prefix space, so a single integer comparison decides most
  * steps and column comparisons start past the shared offset. Rows whose
  * capped code is the duplicate code extend the current match group with no
  * column access at all — this is how codes carried from in-sort aggregation
  * "speed up row comparisons in the merge join" (§6).
  *
  * '''Output coding.''' The output is ordered and keyed on the left key,
  * coded by [[JoinEmitter]] with no additional column comparisons.
  *
  * For [[JoinType.Inner]]/[[JoinType.LeftOuter]] the output payload is
  * `left.payload ++ right.key.drop(joinLen) ++ right.payload`; outer-join
  * null extensions use `nullSentinel`.
  */
object MergeJoinOp {

  def apply(left: Iterator[CodedRow], leftArity: Int,
            right: Iterator[CodedRow], rightArity: Int,
            joinLen: Int, jt: JoinType, stats: OvcStats,
            rightPayloadArity: Int = 0,
            nullSentinel: Long = Long.MinValue): CodedStream = {
    require(joinLen > 0 && joinLen <= leftArity && joinLen <= rightArity,
            s"bad joinLen $joinLen for arities $leftArity/$rightArity")
    new MergeJoinStream(RowCursor.of(left), leftArity, RowCursor.of(right), rightArity, joinLen, jt,
                        stats, rightPayloadArity, nullSentinel)
  }

  private final class MergeJoinStream(
      left: RowCursor, leftArity: Int,
      right: RowCursor, rightArity: Int,
      joinLen: Int, jt: JoinType, stats: OvcStats,
      rightPayloadArity: Int, nullSentinel: Long) extends CodedStream {

    private[this] val cmp = new OvcComparator(joinLen, stats)
    private[this] val emit =
      new JoinEmitter(jt, Array.fill((rightArity - joinLen) + rightPayloadArity)(nullSentinel))
    private[this] val group = emit.group
    private[this] val keepsGroup = jt == JoinType.Inner || jt == JoinType.LeftOuter

    private[this] var lHas = false
    private[this] var lCap: Long = Ovc.LateFence
    private[this] var rHas = false
    private[this] var rCap: Long = Ovc.LateFence
    // The output row is the left row's; the left input moves on at the next step.
    private[this] var emitting = false
    // Left rows are being matched against the current right group.
    private[this] var inGroup = false

    advL(); advR()

    private def advL(): Unit = {
      lHas = left.advance()
      lCap = if (lHas) ProjectOp.capCode(left.code, leftArity, joinLen) else Ovc.LateFence
    }

    private def advR(): Unit = {
      rHas = right.advance()
      rCap = if (rHas) ProjectOp.capCode(right.code, rightArity, joinLen) else Ovc.LateFence
    }

    /** Passes the right-side group: successors whose capped code is the
      * duplicate code share the join key — a single integer test, no columns.
      * Only inner and outer joins keep the group; semi and anti joins need to
      * know only that it exists.
      */
    private def passGroup(): Unit = {
      if (keepsGroup) { group.clear(); group.add(right.key, joinLen, right.payload) }
      advR()
      var more = rHas
      while (more) {
        stats.codeComparisons += 1
        if (Ovc.isDup(rCap)) {
          if (keepsGroup) group.add(right.key, joinLen, right.payload)
          advR(); more = rHas
        } else more = false
      }
    }

    override protected def step(): Boolean = {
      if (emitting) {
        if (emit.more(left)) return true
        emitting = false
        advL()
      }
      while (true) {
        if (inGroup) {
          // Every left row of the matching group, likewise detected by a
          // duplicate capped code.
          if (lHas) {
            stats.codeComparisons += 1
            if (Ovc.isDup(lCap)) {
              if (emit.matched(left)) { emitting = true; return true }
              advL()
            } else inGroup = false
          } else inGroup = false
        } else if (!lHas) return false
        else if (!rHas) {
          if (emit.unmatched(left)) { emitting = true; return true }
          advL()
        } else {
          val c = cmp.compare(left.key, lCap, right.key, rCap)
          if (c < 0) {
            rCap = cmp.loserCode
            if (emit.unmatched(left)) { emitting = true; return true }
            advL()
          } else if (c > 0) { lCap = cmp.loserCode; advR() }
          else {
            passGroup()
            inGroup = true
            if (emit.matched(left)) { emitting = true; return true }
            advL()
          }
        }
      }
      false
    }

    override def key: Array[Long] = emit.key
    override def code: Long = emit.code
    override def payload: Array[Long] = emit.payload
  }
}

/** Order-preserving nested-loops (lookup) join (paper §4.8): the outer input
  * is sorted and coded on its key; `lookup` fetches the inner matches for a
  * join-key prefix. An outer row whose capped code is the duplicate code
  * reuses the previous lookup result without calling `lookup` — offset-value
  * codes save the index probe as well as all comparisons.
  */
object LookupJoinOp {

  final class LookupStats { var calls: Long = 0L }

  def apply(outer: Iterator[CodedRow], outerArity: Int, joinLen: Int,
            lookup: Array[Long] => IndexedSeq[(Array[Long], Array[Long])],
            jt: JoinType, stats: OvcStats,
            lookupStats: LookupStats = new LookupStats,
            nullSentinelArity: Int = 0,
            nullSentinel: Long = Long.MinValue): CodedStream = {
    require(joinLen > 0 && joinLen <= outerArity)
    new CodedStream {
      private[this] val src = RowCursor.of(outer)
      private[this] val emit = new JoinEmitter(jt, Array.fill(nullSentinelArity)(nullSentinel))
      private[this] val group = emit.group
      private[this] var looked = false
      private[this] var emitting = false // more outputs of src's row may follow

      override protected def step(): Boolean = {
        if (emitting && emit.more(src)) return true
        emitting = false
        while (src.advance()) {
          stats.codeComparisons += 1
          val capOff = Ovc.offsetOf(src.code, outerArity)
          if (!looked || capOff < joinLen) {
            lookupStats.calls += 1
            looked = true
            group.clear()
            lookup(src.key.take(joinLen)).foreach { case (suffix, pay) => group.add(suffix, 0, pay) }
          }
          if (if (group.size == 0) emit.unmatched(src) else emit.matched(src)) {
            emitting = true
            return true
          }
        }
        false
      }

      override def key: Array[Long] = emit.key
      override def code: Long = emit.code
      override def payload: Array[Long] = emit.payload
    }
  }
}
