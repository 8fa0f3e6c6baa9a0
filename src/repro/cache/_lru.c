/* Native kernels: LRU cache simulation and the TRG recency pass.
 *
 * Built on first use by repro.cache.native and called through ctypes.
 * Every piece of state lives in caller-owned arrays, passed on each
 * call, so the Python side stays picklable and fork-safe.
 *
 * lru_consume:  a set-associative (or direct-mapped) write-back LRU
 *               cache.  Ways of set s are entries [s*ways, (s+1)*ways)
 *               of tags/stamps/dirty; stamp 0 marks an empty way.
 * fa_consume:   the fully associative LRU shadow the three-Cs split
 *               needs: a linear-probing hash (block -> slot) plus a
 *               doubly linked recency list over `cap` slots.
 * trg_pass:     the profiler's TRG recency queue (byte-bounded, with
 *               per-entry sizes) over rank-compressed (entity, chunk)
 *               keys, adding each walked pair into an open-addressing
 *               edge table.
 * trg_rehash:   move that edge table's entries into a larger table.
 */
#include <stdint.h>

typedef int64_t i64;
typedef int32_t i32;
typedef uint8_t u8;

/* Simulate n touches; fill miss[i]; return the write-backs caused. */
i64 lru_consume(i64 n, const i64 *blocks, const u8 *store, i64 num_sets,
                i64 ways, i64 *tags, i64 *stamps, u8 *dirty, i64 *clock,
                u8 *miss)
{
    i64 writebacks = 0, now = *clock;
    for (i64 i = 0; i < n; i++) {
        i64 block = blocks[i];
        i64 set = block % num_sets;
        if (set < 0)
            set += num_sets; /* floor modulo, like Python and numpy */
        i64 *tag = tags + set * ways, *stamp = stamps + set * ways;
        u8 *dirt = dirty + set * ways;
        i64 hit = -1, victim = 0;
        for (i64 w = 0; w < ways; w++) {
            if (stamp[w] && tag[w] == block) {
                hit = w;
                break;
            }
            if (stamp[w] < stamp[victim])
                victim = w;
        }
        now++;
        if (hit >= 0) {
            stamp[hit] = now;
            dirt[hit] |= store[i];
            miss[i] = 0;
            continue;
        }
        /* Empty ways have stamp 0, so they are filled before any eviction. */
        if (stamp[victim] && dirt[victim])
            writebacks++;
        tag[victim] = block;
        stamp[victim] = now;
        dirt[victim] = store[i];
        miss[i] = 1;
    }
    *clock = now;
    return writebacks;
}

static i64 home(i64 block, i64 mask)
{
    return (i64)(((uint64_t)block * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

/* Hash position of block, or of the empty bucket that ends its probe. */
static i64 probe(i64 block, i64 mask, const i64 *keys, const i32 *slots)
{
    i64 h = home(block, mask);
    while (slots[h] >= 0 && keys[h] != block)
        h = (h + 1) & mask;
    return h;
}

/* Backward-shift deletion keeps every probe chain gap-free. */
static void erase(i64 h, i64 mask, i64 *keys, i32 *slots)
{
    for (i64 j = (h + 1) & mask; slots[j] >= 0; j = (j + 1) & mask) {
        i64 k = home(keys[j], mask);
        int stays = h <= j ? (h < k && k <= j) : (h < k || k <= j);
        if (!stays) {
            keys[h] = keys[j];
            slots[h] = slots[j];
            h = j;
        }
    }
    slots[h] = -1;
}

/* Touch n blocks in the shadow; in_shadow[i] says block i was resident.
 * meta holds {head (most recent), tail (least recent), slots used}. */
void fa_consume(i64 n, const i64 *blocks, i64 cap, i64 mask, i64 *keys,
                i32 *slots, i64 *slot_block, i32 *prev, i32 *next,
                i64 *meta, u8 *in_shadow)
{
    i64 head = meta[0], tail = meta[1], used = meta[2];
    for (i64 i = 0; i < n; i++) {
        i64 block = blocks[i];
        i64 h = probe(block, mask, keys, slots);
        i32 x = slots[h];
        in_shadow[i] = x >= 0;
        if (x >= 0 && x == head)
            continue;
        if (x < 0 && used < cap) {
            x = (i32)used++;
        } else {
            if (x < 0) { /* full: recycle the least recent slot */
                x = (i32)tail;
                erase(probe(slot_block[x], mask, keys, slots), mask, keys,
                      slots);
                h = probe(block, mask, keys, slots);
            }
            if (prev[x] >= 0)
                next[prev[x]] = next[x];
            else
                head = next[x];
            if (next[x] >= 0)
                prev[next[x]] = prev[x];
            else
                tail = prev[x];
        }
        if (slots[h] < 0) {
            keys[h] = block;
            slots[h] = x;
            slot_block[x] = block;
        }
        prev[x] = -1;
        next[x] = (i32)head;
        if (head >= 0)
            prev[head] = x;
        else
            tail = x;
        head = x;
    }
    meta[0] = head;
    meta[1] = tail;
    meta[2] = used;
}

/* Add one to the weight of edge `key` in the open-addressing table; a new
 * edge takes the next stamp (slots used so far), so sorting the used slots
 * by stamp recovers first-increment order.  keys[h] < 0 marks empty. */
static void add_edge(i64 key, i64 mask, i64 *keys, i64 *weights,
                     i64 *stamps, i64 *used)
{
    i64 h = home(key, mask);
    while (keys[h] >= 0 && keys[h] != key)
        h = (h + 1) & mask;
    if (keys[h] < 0) {
        keys[h] = key;
        weights[h] = 0;
        stamps[h] = (*used)++;
    }
    weights[h]++;
}

/* Run the TRG recency pass over ranks[state[0]..n).  Every rank r below
 * num_keys is one (entity, chunk) key; entry[i] > 0 is the queue bytes
 * event i accounts for.  The queue is a doubly linked list over ranks,
 * head most recent; queued[r] holds r's entry bytes, 0 when not queued.
 * A hit on r adds one to edge min(r, o) * num_keys + max(r, o) for every
 * entry o in front of r, newest first, then moves r to the front and
 * updates its bytes.  The tail is then evicted while the bytes exceed
 * the threshold and more than one entry is queued.
 * state holds {next event, head, tail, length, bytes, evictions, edges}.
 * Returns the next event: n when done, earlier when the walk of the next
 * hit could fill the edge table past half, so the caller can grow it
 * (trg_rehash) and call again. */
i64 trg_pass(i64 n, const i64 *ranks, const i64 *entry, i64 num_keys,
             i64 threshold, i64 *queued, i64 *prev, i64 *next, i64 *state,
             i64 mask, i64 *keys, i64 *weights, i64 *stamps)
{
    i64 i = state[0], head = state[1], tail = state[2], length = state[3];
    i64 bytes = state[4], evictions = state[5], used = state[6];
    for (; i < n; i++) {
        i64 r = ranks[i], size = entry[i], old = queued[r];
        if (old) {
            if (2 * (used + length) > mask + 1)
                break;
            for (i64 o = head; o != r; o = next[o])
                add_edge(o < r ? o * num_keys + r : r * num_keys + o, mask,
                         keys, weights, stamps, &used);
            if (r != head) { /* unlink; r is not the head, so prev[r] >= 0 */
                next[prev[r]] = next[r];
                if (next[r] >= 0)
                    prev[next[r]] = prev[r];
                else
                    tail = prev[r];
                prev[r] = -1;
                next[r] = head;
                prev[head] = r;
                head = r;
            }
        } else {
            prev[r] = -1;
            next[r] = head;
            if (head >= 0)
                prev[head] = r;
            else
                tail = r;
            head = r;
            length++;
        }
        queued[r] = size;
        bytes += size - old;
        while (bytes > threshold && length > 1) {
            i64 t = tail;
            bytes -= queued[t];
            queued[t] = 0;
            tail = prev[t];
            next[tail] = -1;
            length--;
            evictions++;
        }
    }
    state[0] = i;
    state[1] = head;
    state[2] = tail;
    state[3] = length;
    state[4] = bytes;
    state[5] = evictions;
    state[6] = used;
    return i;
}

/* Reinsert the cap entries of one edge table into an empty larger one. */
void trg_rehash(i64 cap, const i64 *old_keys, const i64 *old_weights,
                const i64 *old_stamps, i64 mask, i64 *keys, i64 *weights,
                i64 *stamps)
{
    for (i64 j = 0; j < cap; j++) {
        if (old_keys[j] < 0)
            continue;
        i64 h = home(old_keys[j], mask);
        while (keys[h] >= 0)
            h = (h + 1) & mask;
        keys[h] = old_keys[j];
        weights[h] = old_weights[j];
        stamps[h] = old_stamps[j];
    }
}
