#include "trace/record.hh"

#include <sstream>

namespace pmodv::trace
{

std::string
recordTypeName(RecordType t)
{
    switch (t) {
      case RecordType::InstBlock:
        return "inst";
      case RecordType::Load:
        return "load";
      case RecordType::Store:
        return "store";
      case RecordType::SetPerm:
        return "setperm";
      case RecordType::Wrpkru:
        return "wrpkru";
      case RecordType::Attach:
        return "attach";
      case RecordType::Detach:
        return "detach";
      case RecordType::ThreadSwitch:
        return "thread_switch";
      case RecordType::OpBegin:
        return "op_begin";
      case RecordType::OpEnd:
        return "op_end";
    }
    return "unknown";
}

std::string
toString(const TraceRecord &rec)
{
    std::ostringstream os;
    os << recordTypeName(rec.type) << " tid=" << rec.tid;
    switch (rec.type) {
      case RecordType::InstBlock:
        os << " count=" << rec.aux;
        break;
      case RecordType::Load:
      case RecordType::Store:
        os << " addr=0x" << std::hex << rec.addr << std::dec
           << " size=" << rec.aux
           << (rec.flags & kFlagPmo ? " pmo" : "");
        break;
      case RecordType::SetPerm:
        os << " domain=" << rec.aux << " perm=" << permToString(rec.perm());
        break;
      case RecordType::Wrpkru:
        os << " key=" << rec.aux << " perm=" << permToString(rec.perm());
        break;
      case RecordType::Attach:
        os << " domain=" << rec.aux << " base=0x" << std::hex
           << rec.attachBase() << std::dec << " size=" << rec.attachSize()
           << " perm=" << permToString(rec.perm());
        break;
      case RecordType::Detach:
        os << " domain=" << rec.aux;
        break;
      case RecordType::ThreadSwitch:
        os << " to=" << rec.aux;
        break;
      case RecordType::OpBegin:
      case RecordType::OpEnd:
        os << " kind=" << rec.aux;
        break;
    }
    return os.str();
}

} // namespace pmodv::trace
