package repro.sort

import repro.core.{CodedRow, CodedStream, Ovc, OvcComparator, OvcStats, RowCursor}

/** Tree-of-losers priority queue with offset-value coding (paper §3): the one
  * tournament behind run generation, merging and segmented sorting.
  *
  * The tree plays entry indices; each entry is a key, a code and a payload in
  * three parallel arrays. Entries are filled one of two ways:
  *
  *  - *Merge* ([[LoserTree.merge]], or `new LoserTree(inputs, arity, stats)`
  *    over iterators): entry `e` holds the current row of sorted, coded
  *    [[RowCursor]] `e`, whose codes are relative to its predecessor in the
  *    same input (the first row relative to "-inf"); when the entry wins, the
  *    cursor's next row replaces it. The entry refers to the cursor's arrays,
  *    so a cursor that reuses them makes reading a row allocation-free.
  *  - *Row buffer* ([[LoserTree.forRows]]): [[add]] buffers rows and
  *    [[sortRows]] turns each into a single-row run coded relative to a base
  *    offset; when the entry wins, it becomes a late fence. Merging single-row
  *    runs is run generation, and the sorted output is coded as a by-product.
  *
  * The emitted stream's codes are relative to the previously emitted row: the
  * tree keeps every stored loser coded relative to the winner that beat it,
  * so along the winner's leaf-to-root path all keys are coded relative to the
  * prior overall winner, and the successor that replaces the winner arrives
  * coded relative to that same winner.
  *
  * Exhausted entries carry the late-fence code [[Ovc.LateFence]]; fence tests
  * subsume code comparisons, as in the paper's F1 implementation (§5). The
  * entry count is padded to a power of two with fences. Ties are won by the
  * lower entry index, making the merge stable; the losing duplicate is
  * re-coded with the duplicate code 0, which a tree made with `dedup` drops.
  *
  * The tree is a [[CodedStream]]: [[advance]] takes the winner as the current
  * row and replays its leaf-to-root path at once, so the next winner is
  * ready. A row-buffer entry's arrays stay valid through that replay; a merge
  * entry's belong to a cursor the replay moves on, so the tree copies the
  * row into a key and a payload array it owns and reuses.
  */
final class LoserTree private (sources: Array[RowCursor], arity: Int, stats: OvcStats,
                               dedup: Boolean) extends CodedStream {

  /** Merges sorted, coded iterators. */
  def this(inputs: IndexedSeq[Iterator[CodedRow]], arity: Int, stats: OvcStats) =
    this(inputs.iterator.map(RowCursor.of).toArray, arity, stats, dedup = false)

  // Entries in use, and that count padded to a power of two.
  private[this] var m = 0
  private[this] var treeSize = 1

  // A row buffer starts small; add() doubles the arrays as rows arrive.
  private[this] var keys     =
    new Array[Array[Long]](LoserTree.pow2(if (sources != null) sources.length else 16))
  private[this] var codes    = new Array[Long](keys.length)
  private[this] var payloads = new Array[Array[Long]](keys.length)
  // node(1..treeSize-1): entry index of the loser at each internal node;
  // node(0): the overall winner.
  private[this] var node = new Array[Int](keys.length)

  private[this] val cmp = new OvcComparator(arity, stats)

  // The current row; a merge tree's key and payload are copies in its own buffers.
  private[this] var curKey: Array[Long] = null
  private[this] var curCode = 0L
  private[this] var curPayload: Array[Long] = null
  private[this] var keyBuf = Array.emptyLongArray
  private[this] var payloadBuf = Array.emptyLongArray

  if (sources != null) {
    require(sources.nonEmpty, "LoserTree needs at least one input")
    m = sources.length
    treeSize = keys.length
    var e = 0
    while (e < treeSize) { pull(e); e += 1 }
    build()
  } else codes(0) = Ovc.LateFence // an empty row buffer has nothing to emit

  /** Merge mode: load entry `e` with its cursor's next row, or a fence. */
  private def pull(e: Int): Unit =
    if (e < m && sources(e).advance()) {
      val s = sources(e)
      keys(e) = s.key; codes(e) = s.code; payloads(e) = s.payload
    } else codes(e) = Ovc.LateFence

  /** Returns the winning entry of a comparison, updating the loser's code. */
  private def playMatch(a: Int, b: Int): Int = {
    // Fence tests come first and are free in the sense of the paper: they are
    // the same single-integer comparison that would compare the codes.
    if (codes(a) == Ovc.LateFence) return b
    if (codes(b) == Ovc.LateFence) return a
    val c = cmp.compare(keys(a), codes(a), keys(b), codes(b))
    if (c < 0) { codes(b) = cmp.loserCode; a }
    else if (c > 0) { codes(a) = cmp.loserCode; b }
    else if (a < b) { codes(b) = cmp.loserCode; a } // stable: lower index wins
    else { codes(a) = cmp.loserCode; b }
  }

  /** The initial tournament over all entries, bottom-up: each internal node
    * keeps its loser, the winner moves up.
    */
  private def build(): Unit = node(0) = if (treeSize == 1) 0 else build(1)

  private def build(k: Int): Int =
    if (k >= treeSize) k - treeSize
    else {
      val l = build(2 * k); val r = build(2 * k + 1)
      val w = playMatch(l, r)
      node(k) = if (w == l) r else l
      w
    }

  /** Replaces the winner with its successor (merge) or a fence (row buffer)
    * and replays its leaf-to-root path.
    */
  private def replay(): Unit = {
    val w = node(0)
    if (sources != null) pull(w) else codes(w) = Ovc.LateFence
    var cur = w
    var k = (treeSize + w) >> 1
    while (k >= 1) {
      val won = playMatch(cur, node(k))
      if (won != cur) { node(k) = cur; cur = won }
      k >>= 1
    }
    node(0) = cur
  }

  /** Takes the winner as the current row and replays its path. With `dedup`
    * it first replays past winners that carry the duplicate code, so the
    * row is the next distinct one: in-sort dedup. Dropping them leaves the
    * code chain intact, since 0 is the identity of the max-fold (§4.1).
    */
  override protected def step(): Boolean = {
    if (dedup) while (Ovc.isDup(codes(node(0)))) replay()
    val w = node(0)
    codes(w) != Ovc.LateFence && {
      curCode = codes(w)
      if (sources == null) { curKey = keys(w); curPayload = payloads(w) }
      else {
        keyBuf = LoserTree.copyInto(keys(w), keyBuf); curKey = keyBuf
        payloadBuf = LoserTree.copyInto(payloads(w), payloadBuf); curPayload = payloadBuf
      }
      replay()
      true
    }
  }

  override def key: Array[Long] = curKey
  override def code: Long = curCode
  override def payload: Array[Long] = curPayload

  // --- Row-buffer mode ---

  /** Rows buffered since the last [[clear]]. */
  def rows: Int = m

  /** Empties the row buffer; the arrays are kept for the next fill. */
  def clear(): Unit = {
    require(sources == null, "clear is for row-buffer trees")
    m = 0
    treeSize = 1
    node(0) = 0
    codes(0) = Ovc.LateFence
    unfetch()
  }

  /** Buffers one row (row-buffer trees only); the tree keeps the references,
    * not copies.
    */
  def add(key: Array[Long], payload: Array[Long]): Unit = {
    if (m == keys.length) grow()
    keys(m) = key; payloads(m) = payload
    m += 1
  }

  /** Starts the tournament over the buffered rows, each a single-row run coded
    * relative to a base that shares its first `base` columns: offset `base`,
    * value `key(base)`.
    */
  def sortRows(base: Int): Unit = {
    require(sources == null, "sortRows is for row-buffer trees")
    require(base >= 0 && base < arity, s"bad base offset $base for arity $arity")
    treeSize = LoserTree.pow2(m) // the arrays' length is a power of two >= m
    var e = 0
    while (e < m) { codes(e) = Ovc.pack(arity, base, keys(e)(base)); e += 1 }
    while (e < treeSize) { codes(e) = Ovc.LateFence; e += 1 }
    build()
  }

  private def grow(): Unit = {
    val n = 2 * keys.length
    keys = java.util.Arrays.copyOf(keys, n)
    codes = new Array[Long](n) // sortRows sets every code
    payloads = java.util.Arrays.copyOf(payloads, n)
    node = new Array[Int](n)
  }
}

object LoserTree {

  /** Merges sorted, coded cursors, which may reuse their arrays for every
    * row; with `dedup`, rows with the duplicate code are dropped.
    */
  def merge(cursors: IndexedSeq[RowCursor], arity: Int, stats: OvcStats,
            dedup: Boolean = false): LoserTree =
    new LoserTree(cursors.toArray, arity, stats, dedup)

  /** An empty row-buffer tree; its arrays grow as rows are added. */
  def forRows(arity: Int, stats: OvcStats, dedup: Boolean = false): LoserTree =
    new LoserTree(null, arity, stats, dedup)

  /** The least power of two >= n (1 for n <= 1). */
  private def pow2(n: Int): Int = { var s = 1; while (s < n) s <<= 1; s }

  /** `src` copied into `buf`, or into a new array if `buf` has another length. */
  private def copyInto(src: Array[Long], buf: Array[Long]): Array[Long] = {
    val b = if (buf.length == src.length) buf else new Array[Long](src.length)
    System.arraycopy(src, 0, b, 0, src.length)
    b
  }
}
