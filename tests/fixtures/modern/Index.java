package modern;

import java.util.List;
import java.util.Map;

public class Index {
    private Map<String, List<String>> slots;

    public <T> T find(String key) {
        return null;
    }

    public boolean holds(String key) {
        return slots.containsKey(key);
    }
}
