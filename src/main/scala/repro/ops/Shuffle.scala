package repro.ops

import repro.core.{CodedRow, CodedStream, OvcStats}
import repro.sort.LoserTree

/** Order-preserving exchange (paper §4.9). */
object Shuffle {

  /** One-to-many ("splitting") shuffle: with respect to each output partition
    * the stream is a filter, so each partition's codes fold the codes of rows
    * routed elsewhere (max rule, §4.1). Works for any routing function —
    * range, hash, or round-robin — since a subsequence of a sorted stream is
    * sorted.
    */
  def split(in: Iterator[CodedRow], nParts: Int,
            partOf: CodedRow => Int): IndexedSeq[Vector[CodedRow]] = {
    require(nParts > 0)
    val builders = Vector.fill(nParts)(Vector.newBuilder[CodedRow])
    val pendingMax = new Array[Long](nParts)
    in.foreach { r =>
      val p = partOf(r)
      var q = 0
      while (q < nParts) {
        if (q != p) pendingMax(q) = math.max(pendingMax(q), r.code)
        q += 1
      }
      builders(p) += CodedRow(r.key, math.max(r.code, pendingMax(p)), r.payload)
      pendingMax(p) = 0L
    }
    builders.map(_.result())
  }

  /** Many-to-one ("merging") shuffle: a tree-of-losers priority queue maps the
    * partitions' codes to codes in the merged output.
    */
  def merge(parts: IndexedSeq[Iterator[CodedRow]], arity: Int,
            stats: OvcStats): CodedStream =
    new LoserTree(parts, arity, stats)
}
