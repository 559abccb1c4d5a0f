package repro.ops

import scala.collection.mutable.ArrayBuilder

import repro.core.{CodedStream, ERow, Ovc, OvcStats}

/** Sorted columnar storage with per-column run-length encoding, whose ordered
  * scan produces offset-value codes "practically for free" (paper §4.10): a
  * row's offset is the first column whose run boundary falls at that row —
  * a value differs from the previous row's iff a run boundary falls there —
  * and the value is that run's stored value. No column-value comparisons
  * happen at scan time.
  */
final class RleTable(val arity: Int, val numRows: Int,
                     values: Array[Array[Long]], lengths: Array[Array[Int]]) {

  /** Scan in stored order, emitting rows with their packed OVCs into one
    * reused key array. The per-row work is integer run bookkeeping only, and
    * only the columns whose run ends are rewritten; `stats.columnComparisons`
    * is never incremented.
    */
  def scan(stats: OvcStats): CodedStream = new CodedStream {
    private[this] val runIdx = Array.fill(arity)(-1)
    private[this] val remaining = new Array[Int](arity)
    private[this] var row = 0
    private[this] var c = 0L
    override val key: Array[Long] = new Array[Long](arity)

    override protected def step(): Boolean = row < numRows && {
      var off = arity
      var j = 0
      while (j < arity) {
        if (remaining(j) == 0) {
          if (off == arity) off = j // first breaking column = the OVC offset
          runIdx(j) += 1
          remaining(j) = lengths(j)(runIdx(j))
          key(j) = values(j)(runIdx(j))
        }
        remaining(j) -= 1
        j += 1
      }
      c = if (off == arity) 0L else Ovc.pack(arity, off, key(off))
      row += 1
      true
    }

    override def code: Long = c
    override def payload: Array[Long] = ERow.NoPayload
  }
}

object RleTable {

  /** Builds plain per-column RLE (adjacent equal values merge) from keys in
    * ascending order. Throws `IllegalArgumentException`, naming the row, for
    * a key whose arity differs from the first's, a value outside
    * [0, 2^48), or a key smaller than its predecessor.
    */
  def fromSortedKeys(keys: IndexedSeq[Array[Long]]): RleTable = {
    val arity = if (keys.isEmpty) 1 else keys.head.length
    val values = Array.fill(arity)(new ArrayBuilder.ofLong)
    val lengths = Array.fill(arity)(new ArrayBuilder.ofInt)
    val last = new Array[Long](arity) // the previous key
    val runLen = new Array[Int](arity) // rows in each column's open run
    var i = 0
    while (i < keys.length) {
      val k = keys(i)
      if (k.length != arity)
        throw new IllegalArgumentException(s"row $i: key has ${k.length} columns, the first row's $arity")
      var changed = i == 0 // a column left of j differs from the previous key
      var j = 0
      while (j < arity) {
        val v = k(j)
        if ((v >>> Ovc.ValueBits) != 0L)
          throw new IllegalArgumentException(s"row $i: key column $j value $v lies outside [0, 2^${Ovc.ValueBits})")
        if (i > 0 && v == last(j)) runLen(j) += 1
        else {
          if (i > 0) {
            if (!changed && v < last(j))
              throw new IllegalArgumentException(
                s"row $i: key ${k.mkString("[", ",", "]")} is smaller than row ${i - 1}'s ${last.mkString("[", ",", "]")}")
            lengths(j) += runLen(j)
          }
          changed = true
          values(j) += v; runLen(j) = 1; last(j) = v
        }
        j += 1
      }
      i += 1
    }
    if (keys.nonEmpty) (0 until arity).foreach(j => lengths(j) += runLen(j))
    new RleTable(arity, keys.length, values.map(_.result()), lengths.map(_.result()))
  }
}
