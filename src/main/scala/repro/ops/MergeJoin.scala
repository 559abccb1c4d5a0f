package repro.ops

import scala.collection.mutable

import repro.core.{CodedRow, Ovc, OvcComparator, OvcStats}

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

/** The output side of [[MergeJoinOp]] and [[LookupJoinOp]], with no column
  * comparisons: left rows the join drops fold their codes into the next
  * output row (max rule, §4.1); extra outputs of one left row carry the
  * duplicate code. An unmatched outer row's payload ends in `nullExt`.
  */
private[ops] final class JoinEmitter(jt: JoinType, nullExt: Array[Long]) {
  val out = mutable.Queue.empty[CodedRow]
  private[this] var pending = 0L // max-fold of dropped left rows' codes

  /** Code of the next emitted left row: own code folded with dropped rows'. */
  private def fold(l: CodedRow): Long = { val c = math.max(l.code, pending); pending = 0L; c }

  private def joined(l: CodedRow, suffix: Array[Long], pay: Array[Long]): Array[Long] = {
    val p = new Array[Long](l.payload.length + suffix.length + pay.length)
    System.arraycopy(l.payload, 0, p, 0, l.payload.length)
    System.arraycopy(suffix, 0, p, l.payload.length, suffix.length)
    System.arraycopy(pay, 0, p, l.payload.length + suffix.length, pay.length)
    p
  }

  def unmatched(l: CodedRow): Unit = jt match {
    case JoinType.Inner | JoinType.LeftSemi => pending = math.max(pending, l.code)
    case JoinType.LeftAnti => out += CodedRow(l.key, fold(l), l.payload)
    case JoinType.LeftOuter => out += CodedRow(l.key, fold(l), joined(l, nullExt, Array.emptyLongArray))
  }

  /** `group`: the matches' key suffixes and payloads (semi/anti joins ignore it). */
  def matched(l: CodedRow, group: Iterable[(Array[Long], Array[Long])]): Unit = jt match {
    case JoinType.LeftSemi => out += CodedRow(l.key, fold(l), l.payload)
    case JoinType.LeftAnti => pending = math.max(pending, l.code)
    case JoinType.Inner | JoinType.LeftOuter =>
      var first = true
      group.foreach { case (suffix, pay) =>
        val code = if (first) fold(l) else 0L // duplicate left key in the output
        first = false
        out += CodedRow(l.key, code, joined(l, suffix, pay))
      }
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
            nullSentinel: Long = Long.MinValue): Iterator[CodedRow] = {
    require(joinLen > 0 && joinLen <= leftArity && joinLen <= rightArity,
            s"bad joinLen $joinLen for arities $leftArity/$rightArity")
    new MergeJoinIterator(left, leftArity, right, rightArity, joinLen, jt, stats,
                          rightPayloadArity, nullSentinel)
  }

  private final class MergeJoinIterator(
      left: Iterator[CodedRow], leftArity: Int,
      right: Iterator[CodedRow], rightArity: Int,
      joinLen: Int, jt: JoinType, stats: OvcStats,
      rightPayloadArity: Int, nullSentinel: Long) extends Iterator[CodedRow] {

    private[this] val cmp = new OvcComparator(joinLen, stats)
    private[this] val emit =
      new JoinEmitter(jt, Array.fill((rightArity - joinLen) + rightPayloadArity)(nullSentinel))
    private[this] val out = emit.out
    private[this] val keepsGroup = jt == JoinType.Inner || jt == JoinType.LeftOuter

    private[this] var lRow: CodedRow = null
    private[this] var lCap: Long = Ovc.LateFence
    private[this] var rRow: CodedRow = null
    private[this] var rCap: Long = Ovc.LateFence

    advL(); advR()

    private def advL(): Unit =
      if (left.hasNext) { lRow = left.next(); lCap = ProjectOp.capCode(lRow.code, leftArity, joinLen) }
      else { lRow = null; lCap = Ovc.LateFence }

    private def advR(): Unit =
      if (right.hasNext) { rRow = right.next(); rCap = ProjectOp.capCode(rRow.code, rightArity, joinLen) }
      else { rRow = null; rCap = Ovc.LateFence }

    private def processMatch(): Unit = {
      // Pass the right-side group: successors whose capped code is the
      // duplicate code share the join key — a single integer test, no columns.
      // Only inner and outer joins keep the group; semi and anti joins need
      // to know only that it exists.
      val group =
        if (keepsGroup) mutable.ArrayBuffer((rRow.key.drop(joinLen), rRow.payload)) else null
      advR()
      var more = rRow != null
      while (more) {
        stats.codeComparisons += 1
        if (Ovc.isDup(rCap)) {
          if (keepsGroup) group += ((rRow.key.drop(joinLen), rRow.payload))
          advR(); more = rRow != null
        } else more = false
      }
      // Emit for every left row of the matching group, likewise detected by a
      // duplicate capped code.
      emit.matched(lRow, group)
      advL()
      more = lRow != null
      while (more) {
        stats.codeComparisons += 1
        if (Ovc.isDup(lCap)) { emit.matched(lRow, group); advL(); more = lRow != null }
        else more = false
      }
    }

    private def fill(): Unit =
      while (out.isEmpty && lRow != null) {
        if (rRow == null) { emit.unmatched(lRow); advL() }
        else {
          val c = cmp.compare(lRow.key, lCap, rRow.key, rCap)
          if (c < 0) { rCap = cmp.loserCode; emit.unmatched(lRow); advL() }
          else if (c > 0) { lCap = cmp.loserCode; advR() }
          else processMatch()
        }
      }

    override def hasNext: Boolean = { fill(); out.nonEmpty }
    override def next(): CodedRow = { fill(); out.dequeue() }
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
            nullSentinel: Long = Long.MinValue): Iterator[CodedRow] = {
    require(joinLen > 0 && joinLen <= outerArity)
    new Iterator[CodedRow] {
      private[this] val emit = new JoinEmitter(jt, Array.fill(nullSentinelArity)(nullSentinel))
      private[this] val out = emit.out
      private[this] var cached: IndexedSeq[(Array[Long], Array[Long])] = null

      private def fill(): Unit =
        while (out.isEmpty && outer.hasNext) {
          val l = outer.next()
          stats.codeComparisons += 1
          val capOff = Ovc.offsetOf(l.code, outerArity)
          if (cached == null || capOff < joinLen) {
            lookupStats.calls += 1
            cached = lookup(l.key.take(joinLen))
          }
          if (cached.isEmpty) emit.unmatched(l) else emit.matched(l, cached)
        }

      override def hasNext: Boolean = { fill(); out.nonEmpty }
      override def next(): CodedRow = { fill(); out.dequeue() }
    }
  }
}
