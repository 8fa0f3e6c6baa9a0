/* LRU cache kernels over a chunk of expanded block indices.
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
