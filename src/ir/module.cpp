#include "ir/module.hpp"

#include <map>

#include "support/error.hpp"

namespace lp::ir {

Function *
Module::addFunction(std::string name, Type retType)
{
    fatalIf(findFunction(name) != nullptr,
            "duplicate function name: " + name);
    funcs_.push_back(std::make_unique<Function>(std::move(name), retType));
    return funcs_.back().get();
}

ExternalFunction *
Module::addExternal(std::string name, Type retType, ExtAttr attr,
                    std::uint64_t cost, ExternalFunction::Impl impl)
{
    externals_.push_back(std::make_unique<ExternalFunction>(
        std::move(name), retType, attr, cost, std::move(impl)));
    externals_.back()->setIndex(
        static_cast<unsigned>(externals_.size() - 1));
    return externals_.back().get();
}

Global *
Module::addGlobal(std::string name, std::uint64_t sizeBytes)
{
    globals_.push_back(
        std::make_unique<Global>(std::move(name), sizeBytes, globalBytes_));
    // 8-byte alignment, mirrored by interp::Memory::allocGlobal (the
    // Machine asserts the two layouts agree when it maps the segment).
    // A size whose rounding or sum would wrap saturates the layout;
    // allocGlobal rejects it (LP_HEAP).
    const std::uint64_t aligned = (sizeBytes + 7) & ~std::uint64_t{7};
    const std::uint64_t max = ~std::uint64_t{0};
    globalBytes_ = aligned < sizeBytes || aligned > max - globalBytes_
                       ? max
                       : globalBytes_ + aligned;
    return globals_.back().get();
}

ConstInt *
Module::constI64(std::int64_t v)
{
    // Linear scan is fine: modules have few distinct literals and the pool
    // is only consulted at construction time, never during interpretation.
    for (const auto &c : constants_) {
        if (c->kind() == ValueKind::ConstInt && c->type() == Type::I64 &&
            static_cast<ConstInt *>(c.get())->value() == v) {
            return static_cast<ConstInt *>(c.get());
        }
    }
    constants_.push_back(std::make_unique<ConstInt>(v, Type::I64));
    return static_cast<ConstInt *>(constants_.back().get());
}

ConstFloat *
Module::constF64(double v)
{
    for (const auto &c : constants_) {
        if (c->kind() == ValueKind::ConstFloat &&
            static_cast<ConstFloat *>(c.get())->value() == v) {
            return static_cast<ConstFloat *>(c.get());
        }
    }
    constants_.push_back(std::make_unique<ConstFloat>(v));
    return static_cast<ConstFloat *>(constants_.back().get());
}

ConstInt *
Module::constNullPtr()
{
    for (const auto &c : constants_) {
        if (c->kind() == ValueKind::ConstInt && c->type() == Type::Ptr)
            return static_cast<ConstInt *>(c.get());
    }
    constants_.push_back(std::make_unique<ConstInt>(0, Type::Ptr));
    return static_cast<ConstInt *>(constants_.back().get());
}

Function *
Module::findFunction(const std::string &name) const
{
    for (const auto &f : funcs_) {
        if (f->name() == name)
            return f.get();
    }
    return nullptr;
}

void
Module::finalize()
{
    for (auto &f : funcs_)
        f->renumberLocals();
}

} // namespace lp::ir
