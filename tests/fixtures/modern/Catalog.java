package modern;

import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.BiFunction;
import java.util.function.Supplier;

/** Declarator lists whose initializers hold type arguments or comparisons. */
public class Catalog<K, V> {
    private Index index = new Index();
    private Map<K, V> entries = new HashMap<K, V>(), spare;
    private boolean typed = spare instanceof Map<K, V> view, checked;
    private Supplier<Map<K, V>> maker = HashMap<K, V>::new, backup;
    private BiFunction<K, V, Map<K, V>> single = Map::<K, V>of, pair;
    private boolean less = 1 < 2, more = 3 > 2;
    private int pick = 1 < 2 ? 1 : 2, other;
    private int[] small = {1, 2}, large;
    private Runnable task = () -> { }, idle;

    public <T> T find(String key) {
        return null;
    }

    public V lookup(String key) {
        if (index.<String>find(key) != null && size() > 0) {
            return this.<V>find(key);
        }
        return null;
    }

    public int size() {
        return entries.size();
    }

    /** Components with type arguments, type annotations and varargs. */
    public record Entry<K, V>(K key, @Range(min = 0, max = 9) V value, Map<K, List<V>> history,
                              String @Range(min = 1, max = 2) [] notes, int... counts) {
        public Entry {
            check(key);
        }

        private static void check(Object key) {
        }
    }
}
