#include "helpers.hpp"

#include <ostream>
#include <stdexcept>

#include "exec/pool.hpp"
#include "fuzz/differential.hpp"
#include "ir/parser.hpp"
#include "support/error.hpp"

namespace lp::test {

using namespace lp::ir;

std::unique_ptr<Module>
buildSaxpy(std::int64_t n)
{
    auto mod = std::make_unique<Module>("saxpy");
    IRBuilder b(*mod);
    Global *a = mod->addGlobal("a", n * 8);
    Global *bArr = mod->addGlobal("b", n * 8);
    Global *c = mod->addGlobal("c", n * 8);

    b.createFunction("main", Type::I64);
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "ia");
        b.store(l.iv(), b.elem(a, l.iv()));
        l.finish();
    }
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "ib");
        b.store(b.mul(l.iv(), b.i64(2)), b.elem(bArr, l.iv()));
        l.finish();
    }
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "i");
        Value *av = b.load(Type::I64, b.elem(a, l.iv()));
        Value *bv = b.load(Type::I64, b.elem(bArr, l.iv()));
        b.store(b.add(b.mul(av, b.i64(3)), bv), b.elem(c, l.iv()));
        l.finish();
    }
    Value *last = b.load(Type::I64, b.elem(c, b.i64(n - 1)));
    b.ret(last);
    mod->finalize();
    return mod;
}

std::unique_ptr<Module>
buildSumReduction(std::int64_t n)
{
    auto mod = std::make_unique<Module>("sum");
    IRBuilder b(*mod);
    Global *a = mod->addGlobal("a", n * 8);

    b.createFunction("main", Type::I64);
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "i");
        b.store(l.iv(), b.elem(a, l.iv()));
        l.finish();
    }
    Value *result;
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "j");
        Instruction *acc = l.addRecurrence(Type::I64, b.i64(0), "acc");
        Value *av = b.load(Type::I64, b.elem(a, l.iv()));
        Value *next = b.add(acc, av, "acc.next");
        l.setNext(acc, next);
        l.finish();
        result = acc; // post-loop use of the phi (final value semantics
                      // are approximated by the phi's last resolution)
    }
    b.ret(result);
    mod->finalize();
    return mod;
}

namespace {

/** Shared list-walk builder; @p shuffled permutes the threading order. */
std::unique_ptr<Module>
buildChase(std::int64_t n, bool shuffled)
{
    // Node i occupies arena[2*i] (payload) and arena[2*i+1] (next ptr).
    auto mod = std::make_unique<Module>(shuffled ? "chase-shuffled"
                                                 : "chase");
    IRBuilder b(*mod);
    Global *arena = mod->addGlobal("arena", 2 * n * 8);

    b.createFunction("main", Type::I64);

    // Threading order: identity, or a multiply-xorshift bijection over
    // [0, n) (n must be a power of two in that case).  The xor step makes
    // the walk order non-affine, defeating stride predictors.
    lp::panicIf(shuffled && (n & (n - 1)) != 0,
                "shuffled chase requires power-of-two n");
    std::int64_t mask = n - 1;
    auto order = [&](Value *i) -> Value * {
        if (!shuffled)
            return i;
        Value *x = b.and_(b.mul(i, b.i64(2654435761LL)), b.i64(mask));
        return b.and_(b.xor_(x, b.ashr(x, b.i64(5))), b.i64(mask));
    };

    {
        // Link node order(i) -> node order(i+1); last node gets null.
        CountedLoop l(b, b.i64(0), b.i64(n - 1), b.i64(1), "init");
        Value *cur = order(l.iv());
        Value *nxt = order(b.add(l.iv(), b.i64(1)));
        Value *curNode = b.elem(arena, b.mul(cur, b.i64(2)));
        Value *nxtNode = b.elem(arena, b.mul(nxt, b.i64(2)));
        b.store(cur, curNode); // payload
        b.store(nxtNode, b.ptradd(curNode, b.i64(8))); // next pointer
        l.finish();
    }
    {
        // Terminate the list and set the last payload.
        Value *lastIdx = order(b.i64(n - 1));
        Value *lastNode = b.elem(arena, b.mul(lastIdx, b.i64(2)));
        b.store(lastIdx, lastNode);
        b.store(mod->constNullPtr(), b.ptradd(lastNode, b.i64(8)));
    }

    // Walk: while (p) { next = p->next; acc2 = work(p->val); p = next }.
    // The next-pointer load is the FIRST thing in the body, so the
    // producer offset of the carried pointer is small.
    Value *head = b.elem(arena, b.i64(0));
    WhileLoop walk(b, "walk");
    Instruction *p = walk.addRecurrence(Type::Ptr, head, "p");
    Instruction *acc = walk.addRecurrence(Type::I64, b.i64(0), "acc");
    walk.beginCond();
    Value *cond = b.icmpNe(p, mod->constNullPtr());
    walk.beginBody(cond);
    Value *nxt = b.load(Type::Ptr, b.ptradd(p, b.i64(8)), "nxt");
    Value *val = b.load(Type::I64, p, "val");
    // Some per-node work to give the iteration a body.
    Value *w = val;
    for (int r = 0; r < 6; ++r)
        w = b.add(b.mul(w, b.i64(3)), b.i64(r));
    Value *accNext = b.add(acc, w, "acc.next");
    walk.setNext(p, nxt);
    walk.setNext(acc, accNext);
    walk.finish();

    b.ret(acc);
    mod->finalize();
    return mod;
}

} // namespace

std::unique_ptr<Module>
buildPointerChase(std::int64_t n)
{
    return buildChase(n, false);
}

std::unique_ptr<Module>
buildPointerChaseShuffled(std::int64_t n)
{
    return buildChase(n, true);
}

std::unique_ptr<Module>
buildHistogram(std::int64_t n, std::int64_t buckets)
{
    auto mod = std::make_unique<Module>("histogram");
    IRBuilder b(*mod);
    Global *hist = mod->addGlobal("hist", buckets * 8);

    b.createFunction("main", Type::I64);
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "i");
        // key = (i * 2654435761) >> 8, a fixed scramble of the index —
        // computable-free of the bucket array, but the bucket addresses
        // collide dynamically.
        Value *key = b.ashr(b.mul(l.iv(), b.i64(2654435761LL)), b.i64(8));
        Value *slot = b.srem(key, b.i64(buckets));
        Value *addr = b.elem(hist, slot);
        Value *old = b.load(Type::I64, addr);
        b.store(b.add(old, b.i64(1)), addr);
        l.finish();
    }
    b.ret(b.load(Type::I64, b.elem(hist, b.i64(0))));
    mod->finalize();
    return mod;
}

std::unique_ptr<Module>
buildLoopWithCalls(std::int64_t n, CalleeKind kind)
{
    auto mod = std::make_unique<Module>("loop-with-calls");
    IRBuilder b(*mod);
    interp::Stdlib lib = interp::registerStdlib(*mod);
    Global *in = mod->addGlobal("in", n * 8);
    Global *out = mod->addGlobal("out", n * 8);

    // The helper.
    Function *helper = nullptr;
    switch (kind) {
      case CalleeKind::Pure: {
        helper = b.createFunction("helper", Type::I64,
                                  {{Type::I64, "x"}});
        Value *x = helper->args()[0].get();
        Value *y = b.add(b.mul(x, x), b.i64(17));
        b.ret(y);
        break;
      }
      case CalleeKind::Instrumented: {
        helper = b.createFunction(
            "helper", Type::I64,
            {{Type::I64, "x"}, {Type::Ptr, "dst"}});
        Value *x = helper->args()[0].get();
        Value *dst = helper->args()[1].get();
        Value *y = b.add(b.mul(x, x), b.i64(17));
        b.store(y, dst);
        b.ret(y);
        break;
      }
      case CalleeKind::UnsafeExt: {
        helper = b.createFunction("helper", Type::I64,
                                  {{Type::I64, "x"}});
        Value *x = helper->args()[0].get();
        Value *r = b.callExt(lib.rand, {});
        b.ret(b.add(x, b.and_(r, b.i64(7))));
        break;
      }
    }

    b.createFunction("main", Type::I64);
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "init");
        b.store(l.iv(), b.elem(in, l.iv()));
        l.finish();
    }
    {
        CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "i");
        Value *x = b.load(Type::I64, b.elem(in, l.iv()));
        Value *y;
        if (kind == CalleeKind::Instrumented)
            y = b.call(helper, {x, b.elem(out, l.iv())});
        else
            y = b.call(helper, {x});
        b.store(y, b.elem(out, l.iv()));
        l.finish();
    }
    b.ret(b.load(Type::I64, b.elem(out, b.i64(n - 1))));
    mod->finalize();
    return mod;
}

std::unique_ptr<ir::Module>
buildCalleeStore(bool loopStore)
{
    const std::string ownStore = loopStore ? R"(
    %far = add i64 %i, 64
    %fo = mul i64 %far, 8
    %fp = ptradd ptr @a, %fo
    store %i, %fp)"
                                           : "";
    return ir::parseModule(R"(module callee_store
global @a [1024 bytes]

func i64 @put(i64 %i, i64 %v) {
  entry:
    %o = mul i64 %i, 8
    %p = ptradd ptr @a, %o
    store %v, %p
    ret %v
}

func i64 @main() {
  entry:
    jmp label l.hdr
  l.hdr:
    %i = phi i64 [1, entry], [%i.next, l.latch]
    %c = icmp.lt i64 %i, 12
    br %c, label l.body, label l.exit
  l.body:
    %prev = sub i64 %i, 1
    %o = mul i64 %prev, 8
    %p = ptradd ptr @a, %o
    %v = load i64 %p
    %v1 = add i64 %v, %i
    %r = call i64 @put %i, %v1)" + ownStore + R"(
    jmp label l.latch
  l.latch:
    %i.next = add i64 %i, 1
    jmp label l.hdr
  l.exit:
    ret 0
}
)",
                           interp::stdlibImplFor);
}

std::unique_ptr<ir::Module>
buildCalleeLoad()
{
    return ir::parseModule(R"(module callee_load
global @a [1024 bytes]

func i64 @get(i64 %i) {
  entry:
    %o = mul i64 %i, 8
    %p = ptradd ptr @a, %o
    %v = load i64 %p
    ret %v
}

func i64 @main() {
  entry:
    jmp label l.hdr
  l.hdr:
    %i = phi i64 [1, entry], [%i.next, l.latch]
    %c = icmp.lt i64 %i, 12
    br %c, label l.body, label l.exit
  l.body:
    %prev = sub i64 %i, 1
    %v = call i64 @get %prev
    %v1 = add i64 %v, %i
    %o = mul i64 %i, 8
    %p = ptradd ptr @a, %o
    store %v1, %p
    jmp label l.latch
  l.latch:
    %i.next = add i64 %i, 1
    jmp label l.hdr
  l.exit:
    ret 0
}
)",
                           interp::stdlibImplFor);
}

std::unique_ptr<ir::Module>
buildNarrowStrideUpdate()
{
    return ir::parseModule(R"(module narrow_stride
global @a [64 bytes]

func i64 @main() {
  entry:
    jmp label l.hdr
  l.hdr:
    %i = phi i64 [0, entry], [%i.next, l.latch]
    %c = icmp.lt i64 %i, 12
    br %c, label l.body, label l.exit
  l.body:
    %o = mul i64 %i, 4
    %p = ptradd ptr @a, %o
    %v = load i64 %p
    %v1 = add i64 %v, 1
    store %v1, %p
    jmp label l.latch
  l.latch:
    %i.next = add i64 %i, 1
    jmp label l.hdr
  l.exit:
    ret 0
}
)",
                           interp::stdlibImplFor);
}

std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>>
allShapes()
{
    std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>> out;
    out.emplace_back("saxpy", buildSaxpy(64));
    out.emplace_back("sum", buildSumReduction(64));
    out.emplace_back("chase", buildPointerChase(48));
    out.emplace_back("chase-shuffled", buildPointerChaseShuffled(64));
    out.emplace_back("hist", buildHistogram(64, 8));
    out.emplace_back("calls", buildLoopWithCalls(32, CalleeKind::Pure));
    out.emplace_back("calls-inst",
                     buildLoopWithCalls(32, CalleeKind::Instrumented));
    return out;
}

std::vector<rt::LPConfig>
fullGrid()
{
    std::vector<rt::LPConfig> grid;
    for (const core::NamedConfig &named : fuzz::fullGrid())
        grid.push_back(named.config);
    return grid;
}

obs::Json
sweepDocument(const std::vector<core::BenchProgram> &programs,
              const std::vector<rt::LPConfig> &configs, unsigned jobs)
{
    core::SweepRequest req;
    req.configs.clear();
    for (const rt::LPConfig &cfg : configs)
        req.configs.push_back({cfg.str(), cfg});
    req.keepGoing = false;
    req.wantJson = true;
    exec::setJobsOverride(jobs);
    std::ostream discard(nullptr);
    core::SweepResult res = core::runSweep(programs, req, discard);
    exec::setJobsOverride(0);
    return res.document;
}

const analysis::FunctionAnalyses &
analysesOf(const analysis::ModuleAnalyses &analyses, const ir::Function &fn)
{
    for (const auto &fa : analyses.functions())
        if (&fa->fn == &fn)
            return *fa;
    throw std::runtime_error("no analyses for @" + fn.name());
}

} // namespace lp::test
