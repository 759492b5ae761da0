#include "nn/serialization.hh"

#include <sstream>


namespace photofourier {
namespace nn {

void
saveNetwork(const Network &net, std::ostream &out)
{
    out << "photofourier-weights v1\n";
    out << "layers " << net.layerCount() << "\n";
    for (size_t i = 0; i < net.layerCount(); ++i)
        net.layer(i).saveParams(out);
}

bool
loadNetwork(Network &net, std::istream &in)
{
    std::string word;
    if (!(in >> word) || word != "photofourier-weights")
        return false;
    if (!(in >> word) || word != "v1")
        return false;
    size_t count = 0;
    if (!(in >> word) || word != "layers" || !(in >> count))
        return false;
    if (count != net.layerCount())
        return false;
    for (size_t i = 0; i < net.layerCount(); ++i)
        if (!net.layer(i).loadParams(in))
            return false;
    return true;
}

} // namespace nn
} // namespace photofourier
