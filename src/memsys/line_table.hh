/**
 * @file
 * Paged flat table indexed by line number.
 *
 * The simulator's per-line state (directory entries, profiler stamps)
 * is keyed by line number. Lines handed out by a SharedAddressSpace are
 * dense from a small base upward; raw traces may carry addresses
 * anywhere in the 64-bit space. LineTable serves both through one code
 * path: a radix tree whose interior nodes are indexed directly by bit
 * fields of the line number (no hashing, no comparisons), over
 * fixed-size leaf pages of values.
 *
 *   line = [ interior index bits ... ][ kPageBits slot bits ]
 *
 * The tree grows upward on demand: its height is the smallest that
 * covers the largest line ever stored, so dense tables stay two or
 * three levels deep while a line near 2^64 still fits. Pages are
 * allocated on first touch and value-initialized, so a slot nobody
 * wrote reads as T{}. find() never allocates; erase() resets a slot
 * and returns its page to the allocator once every slot of the page
 * is back at T{}, which bounds resident pages by occupied lines.
 *
 * Pages never move once allocated, so a reference returned by
 * operator[] or find() stays valid until that page is erased or the
 * table is cleared.
 */

#ifndef WSG_MEMSYS_LINE_TABLE_HH
#define WSG_MEMSYS_LINE_TABLE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/memref.hh"

namespace wsg::memsys
{

using trace::Addr;

/** Flat, page-allocated map from line number to a value-initialized
 *  T. */
template <typename T>
class LineTable
{
  public:
    /** Lines per page: 2^kPageBits. */
    static constexpr unsigned kPageBits = 6;
    static constexpr std::size_t kPageLines = std::size_t{1}
                                              << kPageBits;
    /** Children per interior node: 2^kNodeBits pointers, one 4 KiB
     *  node on 64-bit hosts. */
    static constexpr unsigned kNodeBits = 9;
    static constexpr std::size_t kFanout = std::size_t{1} << kNodeBits;

    /** One leaf page of values; the owner index locates the page in
     *  pages_ so erase() can release it in O(1). */
    struct Page
    {
        std::array<T, kPageLines> slots{};
        std::size_t owner = 0;
    };

    /** The value of @p line, allocating (value-initialized) its page
     *  on first touch. */
    T &
    operator[](Addr line)
    {
        while (!covers(line))
            grow();
        void **slot = &root_;
        for (int shift = topShift(); shift >= int{kPageBits};
             shift -= int{kNodeBits}) {
            slot = &static_cast<Node *>(*slot)
                        ->child[(line >> shift) & (kFanout - 1)];
            if (!*slot) {
                if (shift > int{kPageBits})
                    *slot = newNode();
                else
                    *slot = newPage();
            }
        }
        return static_cast<Page *>(*slot)->slots[line & (kPageLines - 1)];
    }

    /** The value of @p line, or nullptr when its page was never
     *  allocated (the value would read as T{}). Never allocates. */
    T *
    find(Addr line)
    {
        Page *page = findPage(line);
        return page ? &page->slots[line & (kPageLines - 1)] : nullptr;
    }

    const T *
    find(Addr line) const
    {
        const Page *page = findPage(line);
        return page ? &page->slots[line & (kPageLines - 1)] : nullptr;
    }

    /** Reset @p line to T{}; once every slot of its page is T{} the
     *  page is freed. Requires T to be equality-comparable. */
    void
    erase(Addr line)
    {
        void **parent = nullptr;
        Page *page = findPage(line, &parent);
        if (!page)
            return;
        page->slots[line & (kPageLines - 1)] = T{};
        if (!std::all_of(page->slots.begin(), page->slots.end(),
                         [](const T &v) { return v == T{}; }))
            return;
        *parent = nullptr;
        std::size_t owner = page->owner;
        pages_[owner] = std::move(pages_.back());
        pages_[owner]->owner = owner;
        pages_.pop_back();
    }

    /** Call @p f(T &) on every slot of every allocated page, in no
     *  particular order. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (auto &page : pages_)
            for (T &value : page->slots)
                f(value);
    }

    /** Drop every page and node; the table reads as all T{} again. */
    void
    clear()
    {
        pages_.clear();
        nodes_.clear();
        root_ = nullptr;
        coverBits_ = kPageBits;
    }

    /** Allocated leaf pages. */
    std::size_t pages() const { return pages_.size(); }

    /** Bytes held in pages and interior nodes. */
    std::uint64_t
    residentBytes() const
    {
        return static_cast<std::uint64_t>(pages_.size()) * sizeof(Page) +
               static_cast<std::uint64_t>(nodes_.size()) * sizeof(Node);
    }

  private:
    struct Node
    {
        /** Node * below the lowest interior level, Page * at it. */
        std::array<void *, kFanout> child{};
    };

    /** Whether the tree as tall as it is reaches @p line. */
    bool
    covers(Addr line) const
    {
        return root_ && (coverBits_ >= 64 || (line >> coverBits_) == 0);
    }

    /** Add one level on top: the old root becomes child 0. */
    void
    grow()
    {
        void *old = root_;
        root_ = newNode();
        static_cast<Node *>(root_)->child[0] = old;
        if (old)
            coverBits_ += kNodeBits;
        else
            coverBits_ = kPageBits + kNodeBits;
    }

    /** Shift of the root's index field. */
    int topShift() const { return int(coverBits_) - int{kNodeBits}; }

    /** The page holding @p line, or nullptr; @p parent_slot receives
     *  the interior-node slot that points at it. */
    Page *
    findPage(Addr line, void ***parent_slot = nullptr) const
    {
        if (!covers(line))
            return nullptr;
        void *p = root_;
        void **slot = nullptr;
        for (int shift = topShift(); shift >= int{kPageBits};
             shift -= int{kNodeBits}) {
            slot = &static_cast<Node *>(p)
                        ->child[(line >> shift) & (kFanout - 1)];
            p = *slot;
            if (!p)
                return nullptr;
        }
        if (parent_slot)
            *parent_slot = slot;
        return static_cast<Page *>(p);
    }

    Node *
    newNode()
    {
        nodes_.push_back(std::make_unique<Node>());
        return nodes_.back().get();
    }

    Page *
    newPage()
    {
        pages_.push_back(std::make_unique<Page>());
        pages_.back()->owner = pages_.size() - 1;
        return pages_.back().get();
    }

    /** Top interior node (nullptr while empty). */
    void *root_ = nullptr;
    /** Low line bits the tree resolves: kPageBits + kNodeBits per
     *  interior level. */
    unsigned coverBits_ = kPageBits;
    /** Owners of every interior node and every page. */
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace wsg::memsys

#endif // WSG_MEMSYS_LINE_TABLE_HH
